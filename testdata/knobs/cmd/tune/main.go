// Command tune sets radio.Config.Band and, on a struct of its own, a field
// that only shares the name Power.
package main

import "knobs/internal/radio"

type amp struct{ Power int }

func main() {
	var cfg radio.Config
	cfg.Band = 2
	var a amp
	a.Power = 9
	_ = radio.Tune(cfg) + a.Power
}
