// Package fault is the seeded, deterministic fault-injection subsystem.
//
// # Design note
//
// The simulator models an error-free fabric by default; this package
// adds the three degraded paths real deployments run constantly, as
// pure timing/accounting perturbations on the existing virtual-clock
// pipeline:
//
//   - Link errors (BER). Each TLP crossing an endpoint link draws
//     against a per-TLP corruption probability 1-(1-BER)^(8*wire).
//     A corrupted TLP still serializes (the wire time is spent), the
//     receiver NAKs it, and the transmitter replays after a NAK
//     round trip — so later TLPs queue behind the wasted attempts on
//     the same sim.Server, which is what makes re-arbitration
//     credit- and bandwidth-correct. After ReplayLimit consecutive
//     failures the link retrains inline (the PCIe REPLAY_NUM
//     rollover path).
//   - Completion timeouts (CTO). device.Engine bounds how long a
//     non-posted read may stay outstanding; a late completion is
//     abandoned and the read re-issued with exponential backoff
//     starting at CTO and capped at CTO << CTOBackoffCapShift,
//     aborting with an error after CTORetries re-issues.
//     Posted writes are exempt, as on real hardware.
//   - Retrain events. Links drop into Recovery at exponentially
//     distributed intervals (mean RetrainMTBF), dwell for
//     RetrainDwell, then resume at degraded serialization
//     (DegradeFactor x) for DegradeTime before recovering full
//     width/speed.
//
// Every fault decision draws from a dedicated splitmix64 Stream keyed
// by (endpoint, fault class) — never from the kernel RNG or the
// per-island jitter streams — and draws happen in fabric-call order,
// which is identical at every simworkers count because all of an
// island's endpoints run on one event kernel whatever the worker
// budget. That is the whole determinism argument: same
// seed, same call order, same draws, byte-identical results at any
// parallelism. A nil/zero Config installs nothing at all, so
// fault-free runs execute exactly the pre-fault code path.
//
// Outcomes surface as per-endpoint AER-style Counters
// (correctable/non-fatal/fatal plus replay/timeout/retrain event
// counts) attached to workload results and sweep measurements.
//
// Known simplifications: corruption is modeled on the endpoint link
// hop only (per-hop LCRC means a switch would not forward a bad TLP;
// upstream hops are assumed clean), peer-to-peer shortcut paths and
// the unreserved MMIO-read return path are not perturbed, and retrain
// epochs advance in call order, so a slightly out-of-order timestamp
// lands in the epoch of its call position.
package fault

import (
	"fmt"
	"math"

	"pciebench/internal/sim"
)

// Class names an independent fault stream. Streams for different
// classes on the same endpoint never share state, so adding draws to
// one class cannot shift another.
type Class int

const (
	// ClassLink drives LCRC corruption (replay) decisions.
	ClassLink Class = iota
	// ClassRetrain drives link down/retrain inter-arrival times.
	ClassRetrain
)

// The fault model's fixed parameters.
const (
	// ReplayLimit is how many consecutive corrupted transmissions of
	// one TLP force an inline retrain — the REPLAY_NUM rollover rule.
	ReplayLimit = 4
	// RetrainDwell is the time a link spends in Recovery.
	RetrainDwell = 10 * sim.Microsecond
	// DegradeTime is how long a retrained link stays at degraded
	// serialization before recovering full width/speed.
	DegradeTime = 100 * sim.Microsecond
	// DegradeFactor multiplies serialization time while degraded
	// (2 = half width).
	DegradeFactor = 2
	// CTORetries bounds re-issues after a completion timeout before
	// the read aborts.
	CTORetries = 3
	// CTOBackoffCapShift caps the exponential backoff, which starts at
	// CTO, at CTO << CTOBackoffCapShift.
	CTOBackoffCapShift = 3
)

// Config selects which faults to inject. The zero value (and a nil
// pointer) means fault-free: nothing is installed and the simulation
// takes exactly the pre-fault code path.
type Config struct {
	// BER is the per-bit error rate on endpoint links; 0 disables
	// corruption. Must be in [0, 1).
	BER float64 `json:"ber,omitempty"`
	// CTO is the completion timeout for non-posted reads issued by
	// device engines; 0 disables.
	CTO sim.Time `json:"cto,omitempty"`
	// RetrainMTBF is the mean time between link retrain events;
	// 0 disables retraining.
	RetrainMTBF sim.Time `json:"retrain_mtbf,omitempty"`
}

// Enabled reports whether any fault class is active. Safe on nil.
func (c *Config) Enabled() bool {
	return c != nil && (c.BER > 0 || c.CTO > 0 || c.RetrainMTBF > 0)
}

// Validate rejects configurations outside the model's domain. Safe on
// nil.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.BER < 0 || c.BER >= 1 || math.IsNaN(c.BER) {
		return fmt.Errorf("fault: bit error rate %g outside [0, 1)", c.BER)
	}
	if c.CTO < 0 {
		return fmt.Errorf("fault: negative completion-timeout parameter")
	}
	if c.RetrainMTBF < 0 {
		return fmt.Errorf("fault: negative retrain parameter")
	}
	return nil
}

// Counters is one endpoint's AER-style accounting block. The port and
// engine of an endpoint share one block; it is only ever mutated from
// that endpoint's (single-threaded) simulation context.
type Counters struct {
	// Correctable counts errors recovered transparently (replayed
	// TLPs).
	Correctable uint64 `json:"correctable"`
	// NonFatal counts errors that degraded service but were retried
	// (retrains, completion timeouts that later succeeded).
	NonFatal uint64 `json:"non_fatal"`
	// Fatal counts errors surfaced to the caller (aborted reads).
	Fatal uint64 `json:"fatal"`
	// Replays counts TLP retransmissions after LCRC corruption.
	Replays uint64 `json:"replays"`
	// Timeouts counts completion-timeout expirations.
	Timeouts uint64 `json:"timeouts"`
	// Retrains counts link down/retrain events, including
	// REPLAY_NUM rollovers.
	Retrains uint64 `json:"retrains"`
}

// Zero reports whether no fault was recorded.
func (c *Counters) Zero() bool {
	return c.Correctable == 0 && c.NonFatal == 0 && c.Fatal == 0 &&
		c.Replays == 0 && c.Timeouts == 0 && c.Retrains == 0
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Correctable += o.Correctable
	c.NonFatal += o.NonFatal
	c.Fatal += o.Fatal
	c.Replays += o.Replays
	c.Timeouts += o.Timeouts
	c.Retrains += o.Retrains
}

// streamGamma is the splitmix64 increment for fault streams. It is
// deliberately distinct from the kernel RNG's seeding and from the
// island-jitter derivation constant (0xD1B54A32D192ED03), so fault
// draws can never alias either sequence.
const streamGamma = 0xA0761D6478BD642F

// Stream is an independent splitmix64 sequence keyed by
// (seed, endpoint, class). Draws are consumed in fabric-call order,
// which the parallel-simulation machinery keeps identical at every
// worker count.
type Stream struct {
	state uint64
}

// NewStream derives the stream for one (endpoint, fault class) pair
// from the fabric seed. Different endpoints and different classes get
// provably distinct initial states (the mix is a bijection of a
// distinct input).
func NewStream(seed int64, endpoint int, class Class) *Stream {
	s := uint64(seed)
	s ^= (uint64(endpoint) + 1) * 0x9E3779B97F4A7C15
	s ^= (uint64(class) + 1) * 0x8BB84B93962EACC9
	return &Stream{state: mix64(s)}
}

// mix64 is the splitmix64 output permutation.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// next advances the stream one step.
func (s *Stream) next() uint64 {
	s.state += streamGamma
	return mix64(s.state)
}

// Float64 returns the next draw in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Exp returns the next exponentially distributed interval with the
// given mean, floored at one picosecond so event times always
// advance.
func (s *Stream) Exp(mean sim.Time) sim.Time {
	u := s.Float64()
	d := sim.Time(-float64(mean) * math.Log1p(-u))
	if d < 1 {
		d = 1
	}
	return d
}

// TLPCorruptProb converts a bit error rate into the probability that
// a TLP of the given wire size arrives with a bad LCRC:
// 1-(1-BER)^(8*wireBytes).
func TLPCorruptProb(ber float64, wireBytes int) float64 {
	if ber <= 0 || wireBytes <= 0 {
		return 0
	}
	return 1 - math.Pow(1-ber, float64(8*wireBytes))
}
