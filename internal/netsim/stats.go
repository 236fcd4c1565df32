package netsim

import "mlfair/internal/obs"

// EngineStats is the engine's optional runtime-observability sink:
// cumulative counters over every Run executed with Config.Stats
// pointing at it. All fields are atomic obs instruments, so one
// EngineStats can be shared by concurrent replications (the parallel
// runner's workers) and scraped live by another goroutine.
//
// Instrumentation is free on the hot path by construction: the engine
// already maintains every underlying quantity (transmission and pop
// counts, per-edge crossing/drop counters, per-receiver deliveries),
// so enabling stats adds exactly one flush of atomic adds at the end
// of each run — dynamics, RNG consumption and all Result fields are
// byte-identical with stats on or off, and the allocs/event budget is
// unaffected (the flush allocates nothing).
type EngineStats struct {
	// Runs counts completed engine runs (replications).
	Runs obs.Counter
	// Transmissions counts sender packet transmissions; CalendarTicks
	// counts dyadic transmit-calendar ticks (each tick fires the
	// contiguous due-layer range, so Transmissions >= CalendarTicks).
	Transmissions obs.Counter
	CalendarTicks obs.Counter
	// ForwardEvents / ChurnEvents / SignalEvents split the scheduled
	// event-queue pops by kind: delayed DropTail deliveries, membership
	// churn, and the Coordinated signal clock.
	ForwardEvents obs.Counter
	ChurnEvents   obs.Counter
	SignalEvents  obs.Counter
	// Crossings counts packets entering links (bandwidth consumed);
	// Drops the packets links discarded; Deliveries the packets that
	// reached subscribed receivers.
	Crossings  obs.Counter
	Drops      obs.Counter
	Deliveries obs.Counter
	// Events is the engine's throughput currency (Result.Events summed:
	// transmissions + pops + crossings + deliveries).
	Events obs.Counter
	// HeapHighWater is the largest scheduled-event-queue occupancy seen
	// in any run (the calendar keeps sender transmissions out of it, so
	// this tracks only delayed deliveries, churn and the signal clock).
	HeapHighWater obs.Gauge
	// ProbeWindows counts streaming-probe window flushes; ProbeDropped
	// the windows lost to ring overwrites (see ProbeConfig.MaxSamples).
	ProbeWindows obs.Counter
	ProbeDropped obs.Counter
	// VirtualTime accumulates simulated duration across runs.
	VirtualTime obs.FloatCounter
}

// MustRegister registers every stat on reg under the netsim_ prefix
// (Prometheus-convention names; counters end in _total).
func (st *EngineStats) MustRegister(reg *obs.Registry) {
	reg.MustRegister("netsim_runs_total", "completed engine runs (replications)", &st.Runs)
	reg.MustRegister("netsim_transmissions_total", "sender packet transmissions", &st.Transmissions)
	reg.MustRegister("netsim_calendar_ticks_total", "dyadic transmit-calendar ticks fired", &st.CalendarTicks)
	reg.MustRegister("netsim_forward_events_total", "delayed-delivery event pops", &st.ForwardEvents)
	reg.MustRegister("netsim_churn_events_total", "membership churn event pops", &st.ChurnEvents)
	reg.MustRegister("netsim_signal_events_total", "coordinated signal-clock ticks", &st.SignalEvents)
	reg.MustRegister("netsim_crossings_total", "packets entering links (bandwidth consumed)", &st.Crossings)
	reg.MustRegister("netsim_drops_total", "packets dropped by links", &st.Drops)
	reg.MustRegister("netsim_deliveries_total", "packets delivered to subscribed receivers", &st.Deliveries)
	reg.MustRegister("netsim_events_total", "engine events processed (throughput currency)", &st.Events)
	reg.MustRegister("netsim_heap_high_water", "peak scheduled-event-queue occupancy", &st.HeapHighWater)
	reg.MustRegister("netsim_probe_windows_total", "streaming-probe window flushes", &st.ProbeWindows)
	reg.MustRegister("netsim_probe_dropped_total", "probe windows lost to ring overwrites", &st.ProbeDropped)
	reg.MustRegister("netsim_virtual_time", "simulated time units across runs", &st.VirtualTime)
}

// flushStats publishes one finished logical run into st: one Runs
// increment, counter sums over the run's engines, the probe windows
// once (every engine flushed the same window grid), and the run's
// duration once. Every quantity is an engine counter that was
// maintained anyway or a sum the result fold already produced.
func flushStats(st *EngineStats, engines []*engine, res *Result) {
	if st == nil {
		return
	}
	st.Runs.Inc()
	var sent, ticks, fwd, churn, sig int64
	var crossed, drops, delivered int64
	heapHW := 0
	for _, e := range engines {
		sent += int64(e.sent)
		ticks += e.ticksFired
		fwd += e.popForward
		churn += e.popChurn
		sig += e.popSignal
		for i := range e.sess {
			s := &e.sess[i]
			for eid := range s.hot {
				crossed += s.crossed[eid]
				drops += s.cold[eid].drops
			}
			for _, n := range s.received {
				delivered += int64(n)
			}
		}
		heapHW = max(heapHW, e.heapHW)
	}
	st.Transmissions.Add(sent)
	st.CalendarTicks.Add(ticks)
	st.ForwardEvents.Add(fwd)
	st.ChurnEvents.Add(churn)
	st.SignalEvents.Add(sig)
	st.Crossings.Add(crossed)
	st.Drops.Add(drops)
	st.Deliveries.Add(delivered)
	st.Events.Add(res.Events)
	st.HeapHighWater.SetMax(int64(heapHW))
	if ps := res.Probe; ps != nil {
		st.ProbeWindows.Add(int64(engines[0].probe.count))
		st.ProbeDropped.Add(int64(ps.Dropped))
	}
	st.VirtualTime.Add(res.Duration)
}
