// Package sim provides a deterministic discrete-event simulation engine.
//
// All Norman experiments run in virtual time: components schedule events on
// an Engine, and durations are expressed in picoseconds so that sub-nanosecond
// costs (per-byte copy time, overlay cycles) accumulate without rounding.
// Virtual time makes throughput and latency results independent of the Go
// runtime (scheduler, GC), which matters because the paper's claims concern
// nanosecond-scale dataplane costs.
package sim

import "fmt"

// Time is a point in virtual time, in picoseconds since simulation start.
//
// The zero Time is the simulation epoch. At picosecond resolution an int64
// covers about 106 days of virtual time, far beyond any experiment here.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Nanoseconds returns the duration as a floating-point number of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds returns the duration as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string {
	switch {
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.2fns", d.Nanoseconds())
	case d < Millisecond:
		return fmt.Sprintf("%.2fus", d.Microseconds())
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

func (t Time) String() string { return Duration(t).String() }

// Scale returns d scaled by the dimensionless factor f, rounding to the
// nearest picosecond. Scaling a negative duration is not supported.
func (d Duration) Scale(f float64) Duration {
	if d < 0 {
		panic("sim: Scale of negative duration")
	}
	return Duration(float64(d)*f + 0.5)
}

// PerByte returns the time to move n bytes at the given bytes-per-second
// bandwidth. A non-positive bandwidth means "instantaneous" (zero duration);
// this lets cost models disable a term without special cases at call sites.
func PerByte(n int, bytesPerSecond float64) Duration {
	if bytesPerSecond <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n) / bytesPerSecond * float64(Second))
}

// Gbps converts a link rate in gigabits per second to bytes per second.
func Gbps(rate float64) float64 { return rate * 1e9 / 8 }
