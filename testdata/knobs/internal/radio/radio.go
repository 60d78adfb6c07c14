// Package radio declares the fixture's one Config: Band is set by the tune
// command, Power by nothing.
package radio

// Config is a fixture options struct with two knobs.
type Config struct {
	Band  int
	Power int
}

// Tune returns the band a radio built from cfg listens on.
func Tune(cfg Config) int { return cfg.Band }
