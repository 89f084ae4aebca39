package faults

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ivdss/internal/wall"
)

// Window schedules one outage of a named target relative to the driver's
// start instant: the target is down in [Start, End).
type Window struct {
	Target string
	Start  time.Duration
	End    time.Duration
}

// StormDriver replays a precomputed outage schedule against fault
// proxies on the wall clock: when a window opens, the target's proxy
// drops new connections and severs established ones (a site crash); when
// the last window covering a target closes, the proxy passes traffic
// again (the site rebooted). It is the live-mode twin of the DES, whose
// catalog reads the schedule as its site-health source and marks the
// down site's tables BaseDown (federation.Catalog.WatchSites): both
// consume the same generated schedule, scaled from experiment minutes to
// wall time by the caller. Live, the crashed site's breaker opens and the
// server's catalog marks it down by the same rule.
type StormDriver struct {
	proxies map[string]*Proxy
	windows []Window

	mu     sync.Mutex
	down   map[string]int // overlapping-window refcount per target
	timers []*time.Timer
	run    bool
}

// NewStormDriver validates that every window names a known proxy and has
// a non-empty span. The schedule may overlap windows on one target.
func NewStormDriver(proxies map[string]*Proxy, windows []Window) (*StormDriver, error) {
	for _, w := range windows {
		if _, ok := proxies[w.Target]; !ok {
			return nil, fmt.Errorf("faults: storm window names unknown target %q", w.Target)
		}
		if w.Start < 0 || w.End <= w.Start {
			return nil, fmt.Errorf("faults: storm window for %q has empty span [%v, %v)", w.Target, w.Start, w.End)
		}
	}
	sorted := make([]Window, len(windows))
	copy(sorted, windows)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	return &StormDriver{
		proxies: proxies,
		windows: sorted,
		down:    make(map[string]int),
	}, nil
}

// Start arms one timer per window edge. It may be called once.
func (d *StormDriver) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.run {
		return
	}
	d.run = true
	for _, w := range d.windows {
		w := w
		d.timers = append(d.timers,
			wall.AfterFunc(w.Start, func() { d.open(w.Target) }),
			wall.AfterFunc(w.End, func() { d.close(w.Target) }),
		)
	}
}

// open marks one window on target active, crashing its proxy on the
// first overlapping window.
func (d *StormDriver) open(target string) {
	d.mu.Lock()
	d.down[target]++
	first := d.down[target] == 1
	p := d.proxies[target]
	d.mu.Unlock()
	if first {
		p.SetMode(ModeDrop, 0)
		p.Sever()
	}
}

// close retires one window on target, restoring traffic when no window
// still covers it.
func (d *StormDriver) close(target string) {
	d.mu.Lock()
	if d.down[target] > 0 {
		d.down[target]--
	}
	last := d.down[target] == 0
	p := d.proxies[target]
	d.mu.Unlock()
	if last {
		p.SetMode(ModePass, 0)
	}
}

// Down lists the targets currently inside an active window, sorted.
func (d *StormDriver) Down() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for t, n := range d.down {
		if n > 0 {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// Stop cancels pending window edges and restores every target to
// pass-through. Windows already open are closed immediately.
func (d *StormDriver) Stop() {
	d.mu.Lock()
	timers := d.timers
	d.timers = nil
	targets := make([]string, 0, len(d.down))
	for t := range d.down {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	var restore []*Proxy
	for _, t := range targets {
		if d.down[t] > 0 {
			restore = append(restore, d.proxies[t])
		}
		d.down[t] = 0
	}
	d.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	for _, p := range restore {
		p.SetMode(ModePass, 0)
	}
}
