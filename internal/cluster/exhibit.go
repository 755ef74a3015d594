package cluster

import "repro/internal/obs"

// Exhibit is the bootstrap every exhibit binary shares: the world it runs
// on, the trace its -trace/-metrics/-obs-summary flags asked for and the
// live -obs-listen endpoint.
type Exhibit struct {
	// World is nil for a shared-memory run.
	World *World
	// Trace is nil when observability is off; pass it to obs.CLI.Emit.
	Trace *obs.Trace
	// Rec records a shared-memory run's phases (rank 0 of Trace); nil for
	// a world, whose ranks record through Comm.Obs, and when Trace is nil.
	Rec *obs.Recorder

	srv *obs.Server
}

// OpenExhibit sets up an exhibit run. ranks > 0 opens a world with
// OpenWorld (in-process goroutine ranks, or this process's rank under
// `peachy launch`) and observes it when o asks for output; ranks == 0 is
// a shared-memory run in this process, recorded on a one-rank trace.
// Either way the live endpoint starts when -obs-listen asked for one.
// Callers defer Close.
func OpenExhibit(o *obs.CLI, ranks int) (*Exhibit, error) {
	e := &Exhibit{}
	info := obs.ServerInfo{Rank: -1, World: 1, Device: "local"}
	if ranks == 0 {
		if o.Enabled() {
			e.Trace = obs.NewTrace(1)
			e.Rec = e.Trace.Rank(0)
		}
	} else {
		w, err := OpenWorld(ranks, DefaultOptions())
		if err != nil {
			return nil, err
		}
		e.World = w
		if o.Enabled() {
			e.Trace = w.Observe()
		}
		info = w.ObsInfo()
	}
	srv, err := o.Serve(e.Trace, info)
	if err != nil {
		e.Close()
		return nil, err
	}
	e.srv = srv
	return e, nil
}

// Lead reports whether this process prints the once-per-world result:
// always on shared memory, World.Lead otherwise.
func (e *Exhibit) Lead() bool { return e.World == nil || e.World.Lead() }

// Close stops the live endpoint and tears down the world's transport.
func (e *Exhibit) Close() {
	e.srv.Close()
	if e.World != nil {
		e.World.Close()
	}
}
