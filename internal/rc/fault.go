package rc

import (
	"pciebench/internal/dll"
	"pciebench/internal/fault"
	"pciebench/internal/sim"
)

// linkFault is a port's installed fault model: BER-driven LCRC
// corruption with NAK/replay, and link retrain events with a degraded
// window. A nil linkFault (the default) leaves the port on the exact
// pre-fault code path with zero stream draws.
//
// Faults perturb the endpoint link hop only: per-hop LCRC means a
// switch never forwards a corrupted TLP, so upstream hops are assumed
// clean. The peer-to-peer shortcut paths and the unreserved MMIO-read
// return path are deliberately not perturbed.
type linkFault struct {
	cfg     fault.Config
	link    *fault.Stream // corruption draws (ClassLink)
	retrain *fault.Stream // retrain inter-arrivals (ClassRetrain)
	ctr     *fault.Counters

	// probLUT memoizes the per-TLP corruption probability by wire
	// size, mirroring the port's bytesTime LUT (entry 0 is the
	// unfilled sentinel: any positive wire size has p > 0 when
	// BER > 0).
	probLUT []float64

	// nakRTT is the fixed replay turnaround: the NAK DLLP's own
	// serialization plus a wire round trip.
	nakRTT sim.Time

	// Retrain state machine, advanced lazily in call order.
	started       bool
	nextRetrain   sim.Time
	degradedUntil sim.Time
}

// InstallFaults arms the port's fault model. links and retrains must
// be the port's dedicated (endpoint, class) streams; ctr is the
// endpoint's shared counter block.
func (p *Port) InstallFaults(cfg fault.Config, link, retrain *fault.Stream, ctr *fault.Counters) {
	f := &linkFault{cfg: cfg, link: link, retrain: retrain, ctr: ctr}
	if cfg.BER > 0 {
		f.probLUT = make([]float64, len(p.btLUT))
	}
	f.nakRTT = 2*p.cfg.WireDelay + p.bytesTime(dll.WireBytes)
	p.flt = f
}

// FaultCounters returns the port's counter block, or nil when no
// fault model is installed.
func (p *Port) FaultCounters() *fault.Counters {
	if p.flt == nil {
		return nil
	}
	return p.flt.ctr
}

// corruptProb returns the per-TLP corruption probability for a wire
// size, memoized like bytesTime.
func (f *linkFault) corruptProb(wire int) float64 {
	if wire < len(f.probLUT) {
		if v := f.probLUT[wire]; v != 0 {
			return v
		}
		v := fault.TLPCorruptProb(f.cfg.BER, wire)
		f.probLUT[wire] = v
		return v
	}
	return fault.TLPCorruptProb(f.cfg.BER, wire)
}

// adjust runs one TLP injection through the fault state machine:
// pending retrain epochs push the start time into/past Recovery, a
// degraded window stretches serialization, and corruption draws burn
// wasted attempts on srv (so later TLPs re-arbitrate behind them)
// before the caller schedules the successful one. State advances in
// fabric-call order — identical at every simworkers count — so the
// draw sequence, and with it every timing, is deterministic.
func (f *linkFault) adjust(p *Port, srv *sim.Server, at sim.Time, wire int, dur sim.Time) (sim.Time, sim.Time) {
	if f.cfg.RetrainMTBF > 0 {
		if !f.started {
			f.started = true
			f.nextRetrain = at + f.retrain.Exp(f.cfg.RetrainMTBF)
		}
		for at >= f.nextRetrain {
			recovered := f.nextRetrain + fault.RetrainDwell
			f.ctr.Retrains++
			f.ctr.NonFatal++
			if at < recovered {
				at = recovered
			}
			f.degradedUntil = recovered + fault.DegradeTime
			f.nextRetrain = recovered + f.retrain.Exp(f.cfg.RetrainMTBF)
		}
	}
	if at < f.degradedUntil {
		dur *= fault.DegradeFactor
	}
	if f.cfg.BER > 0 {
		pr := f.corruptProb(wire)
		for n := 0; f.link.Float64() < pr; n++ {
			// The corrupted attempt still occupies the link; the
			// replay starts after the receiver's NAK round trip.
			done := srv.ScheduleAt(at, dur)
			f.ctr.Replays++
			f.ctr.Correctable++
			at = done + f.nakRTT
			if n+1 >= fault.ReplayLimit {
				// REPLAY_NUM rollover: the link drops to Recovery
				// and retrains before the final attempt.
				f.ctr.Retrains++
				f.ctr.NonFatal++
				at += fault.RetrainDwell
				f.degradedUntil = at + fault.DegradeTime
				break
			}
		}
	}
	return at, dur
}
