package synth

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"ivdss/internal/core"
	"ivdss/internal/stats"
)

// Scenario is a named, seeded workload specification: everything the
// matrix bench needs to materialize one workload shape — table-count
// scale, popularity skew, an arrival process, a horizon mix, and
// (optionally) correlated site-outage storms. A Scenario serializes to
// JSON so the same spec drives the DES bench, the live load generator,
// and the checked-in regression baseline identically.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed is the scenario's master seed; every generated dimension
	// (arrivals, table picks, values, outages) draws from an independent
	// labelled sub-stream of it.
	Seed int64 `json:"seed"`
	// Tables is the synthetic table universe size (the paper sweeps
	// 10–300).
	Tables int `json:"tables"`
	// Sites is the remote federation width; tables are placed uniformly.
	Sites int `json:"sites"`
	// Replicas is how many tables the deployment replicates locally.
	Replicas int `json:"replicas"`
	// SyncMean is the mean replica synchronization cycle in experiment
	// minutes. Required when Replicas > 0.
	SyncMean core.Duration `json:"sync_mean_minutes,omitempty"`
	// NQueries is the stream length.
	NQueries int `json:"queries"`
	// MaxTablesPerQuery bounds each query's uniform 1..Max table count.
	MaxTablesPerQuery int `json:"max_tables_per_query"`
	// Skew is the Zipf exponent over table popularity: 0 picks tables
	// uniformly, a value > 1 concentrates traffic on a hot few.
	Skew float64 `json:"skew,omitempty"`
	// Arrival shapes the query arrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// Horizon mixes tight-ε and lax value horizons across the stream.
	Horizon HorizonSpec `json:"horizon"`
	// Outages, when set, adds correlated site-outage storms.
	Outages *OutageSpec `json:"outages,omitempty"`
}

// ArrivalShape names an arrival process family.
type ArrivalShape string

// The supported arrival shapes.
const (
	// ArrivalSteady is a homogeneous Poisson process.
	ArrivalSteady ArrivalShape = "steady"
	// ArrivalDiurnal modulates the rate sinusoidally between the base
	// rate and PeakFactor times it, with the given period.
	ArrivalDiurnal ArrivalShape = "diurnal"
	// ArrivalFlashCrowd multiplies the rate by FlashFactor inside the
	// window [FlashAt, FlashAt+FlashWidth).
	ArrivalFlashCrowd ArrivalShape = "flash-crowd"
	// ArrivalBurstyPoisson is a compound Poisson process modelling bursty
	// CDC-style traffic: burst epochs arrive exponentially, each carrying
	// a cluster of queries spread over BurstSpread.
	ArrivalBurstyPoisson ArrivalShape = "bursty-poisson"
)

// ArrivalSpec parameterizes the arrival process. Mean is the base mean
// interarrival gap in experiment minutes for every shape; the remaining
// fields apply only to the shapes that name them.
type ArrivalSpec struct {
	Shape ArrivalShape  `json:"shape"`
	Mean  core.Duration `json:"mean_minutes"`
	// Diurnal: rate cycles with this period, peaking at PeakFactor times
	// the base rate.
	Period     core.Duration `json:"period_minutes,omitempty"`
	PeakFactor float64       `json:"peak_factor,omitempty"`
	// Flash crowd: the window and its rate multiplier.
	FlashAt     core.Time     `json:"flash_at_minutes,omitempty"`
	FlashWidth  core.Duration `json:"flash_width_minutes,omitempty"`
	FlashFactor float64       `json:"flash_factor,omitempty"`
	// Bursty Poisson: mean queries per burst and the spread of a burst's
	// arrivals.
	BurstMean   float64       `json:"burst_mean,omitempty"`
	BurstSpread core.Duration `json:"burst_spread_minutes,omitempty"`
}

// HorizonSpec mixes tight and lax value horizons: a TightFraction of the
// stream carries TightValue as business value (a low value means the IV
// falls below any ε threshold quickly — a tight horizon), the rest carry
// LaxValue. Zero values default to 1 (all-lax).
type HorizonSpec struct {
	TightFraction float64 `json:"tight_fraction,omitempty"`
	TightValue    float64 `json:"tight_value,omitempty"`
	LaxValue      float64 `json:"lax_value,omitempty"`
}

// OutageSpec shapes correlated site-outage storms: Storms storm starts
// arrive with exponential MeanGap, each taking down a correlated
// SiteFraction of the remote sites for an exponential MeanDuration.
type OutageSpec struct {
	Storms       int           `json:"storms"`
	MeanGap      core.Duration `json:"mean_gap_minutes"`
	MeanDuration core.Duration `json:"mean_duration_minutes"`
	SiteFraction float64       `json:"site_fraction"`
}

// Outage is one site's down window in experiment minutes. Storm
// generation emits one Outage per affected site; sites in the same storm
// share Start and End (that is the correlation).
type Outage struct {
	Site  core.SiteID `json:"site"`
	Start core.Time   `json:"start_minutes"`
	End   core.Time   `json:"end_minutes"`
}

// Down reports whether the site is inside this outage window at t.
func (o Outage) Down(t core.Time) bool { return t >= o.Start && t < o.End }

// Workload is a materialized scenario: the table universe, the query
// stream, and the outage schedule, all deterministic in the scenario
// seed.
type Workload struct {
	Scenario Scenario
	Tables   []core.TableID
	Queries  []core.Query
	Outages  []Outage
}

// SiteDown reports whether the schedule has the site down at t. It makes
// a Workload a federation.SiteHealth: the DES catalog reads it to mark
// the down site's tables BaseDown, as the live catalog reads breakers.
func (w *Workload) SiteDown(site core.SiteID, t core.Time) bool {
	for _, o := range w.Outages {
		if o.Site == site && o.Down(t) {
			return true
		}
	}
	return false
}

// OutageMinutes sums site-down minutes over the schedule (a site down
// twice counts both windows).
func (w *Workload) OutageMinutes() float64 {
	var total float64
	for _, o := range w.Outages {
		total += o.End - o.Start
	}
	return total
}

// Validate reports whether the scenario is well formed.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("synth: scenario needs a name")
	}
	if s.Tables < 1 {
		return fmt.Errorf("synth: scenario %s: need at least one table, got %d", s.Name, s.Tables)
	}
	if s.Sites < 1 {
		return fmt.Errorf("synth: scenario %s: need at least one site, got %d", s.Name, s.Sites)
	}
	if s.Replicas < 0 || s.Replicas > s.Tables {
		return fmt.Errorf("synth: scenario %s: replicas %d outside [0, %d]", s.Name, s.Replicas, s.Tables)
	}
	if s.Replicas > 0 && s.SyncMean <= 0 {
		return fmt.Errorf("synth: scenario %s: replicas without a positive sync mean", s.Name)
	}
	if s.NQueries < 1 {
		return fmt.Errorf("synth: scenario %s: need a positive query count, got %d", s.Name, s.NQueries)
	}
	if s.MaxTablesPerQuery < 1 || s.MaxTablesPerQuery > s.Tables {
		return fmt.Errorf("synth: scenario %s: max tables per query %d outside [1, %d]", s.Name, s.MaxTablesPerQuery, s.Tables)
	}
	if s.Skew != 0 && s.Skew <= 1 {
		return fmt.Errorf("synth: scenario %s: skew %v must be 0 or > 1", s.Name, s.Skew)
	}
	if err := s.Arrival.validate(); err != nil {
		return fmt.Errorf("synth: scenario %s: %w", s.Name, err)
	}
	if err := s.Horizon.validate(); err != nil {
		return fmt.Errorf("synth: scenario %s: %w", s.Name, err)
	}
	if s.Outages != nil {
		if err := s.Outages.validate(s.Sites); err != nil {
			return fmt.Errorf("synth: scenario %s: %w", s.Name, err)
		}
	}
	return nil
}

func (a ArrivalSpec) validate() error {
	if a.Mean <= 0 {
		return fmt.Errorf("arrival mean %v must be positive", a.Mean)
	}
	switch a.Shape {
	case ArrivalSteady:
	case ArrivalDiurnal:
		if a.Period <= 0 {
			return fmt.Errorf("diurnal arrivals need a positive period, got %v", a.Period)
		}
		if a.PeakFactor < 1 {
			return fmt.Errorf("diurnal peak factor %v must be >= 1", a.PeakFactor)
		}
	case ArrivalFlashCrowd:
		if a.FlashWidth <= 0 {
			return fmt.Errorf("flash crowd needs a positive width, got %v", a.FlashWidth)
		}
		if a.FlashAt < 0 {
			return fmt.Errorf("flash start %v must be non-negative", a.FlashAt)
		}
		if a.FlashFactor < 1 {
			return fmt.Errorf("flash factor %v must be >= 1", a.FlashFactor)
		}
	case ArrivalBurstyPoisson:
		if a.BurstMean < 1 {
			return fmt.Errorf("burst mean %v must be >= 1", a.BurstMean)
		}
		if a.BurstSpread <= 0 {
			return fmt.Errorf("burst spread %v must be positive", a.BurstSpread)
		}
	default:
		return fmt.Errorf("unknown arrival shape %q", a.Shape)
	}
	return nil
}

func (h HorizonSpec) validate() error {
	if h.TightFraction < 0 || h.TightFraction > 1 {
		return fmt.Errorf("tight fraction %v outside [0, 1]", h.TightFraction)
	}
	if h.TightValue < 0 || h.LaxValue < 0 {
		return fmt.Errorf("horizon values must be non-negative, got tight %v lax %v", h.TightValue, h.LaxValue)
	}
	if h.TightFraction > 0 && h.TightValue == 0 {
		return fmt.Errorf("tight fraction %v without a tight value", h.TightFraction)
	}
	return nil
}

func (o OutageSpec) validate(sites int) error {
	if o.Storms < 1 {
		return fmt.Errorf("outage spec needs at least one storm, got %d", o.Storms)
	}
	if o.MeanGap <= 0 || o.MeanDuration <= 0 {
		return fmt.Errorf("outage gaps and durations must be positive, got %v and %v", o.MeanGap, o.MeanDuration)
	}
	if o.SiteFraction <= 0 || o.SiteFraction > 1 {
		return fmt.Errorf("outage site fraction %v outside (0, 1]", o.SiteFraction)
	}
	if int(float64(sites)*o.SiteFraction) < 1 && sites < 1 {
		return fmt.Errorf("outage storms need at least one site")
	}
	return nil
}

// ParseScenario decodes and validates a JSON scenario. Unknown fields are
// rejected so a typo in a checked-in spec cannot silently change the
// workload shape.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	if err := strictUnmarshal(data, &s); err != nil {
		return s, fmt.Errorf("synth: parse scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// JSON encodes the scenario in its canonical indented form.
func (s Scenario) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// strictUnmarshal is json.Unmarshal with unknown fields disallowed.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Generate materializes the scenario. Every dimension draws from an
// independent labelled sub-stream of the scenario seed, so the same seed
// yields a byte-identical query stream and outage schedule, and changing
// one dimension's parameters never perturbs another's draws.
func (s Scenario) Generate() (*Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	wl := &Workload{Scenario: s, Tables: Tables(s.Tables)}

	arrivals := s.Arrival.times(s.NQueries, stats.NewSource(stats.SubSeed(s.Seed, "arrivals")))

	pickSrc := stats.NewSource(stats.SubSeed(s.Seed, "tables"))
	var zipf *stats.Zipf
	var ranking []int
	if s.Skew > 1 {
		zipf = stats.NewZipf(uint64(s.Tables), s.Skew, stats.SubSeed(s.Seed, "zipf"))
		ranking = pickSrc.Perm(s.Tables)
	}

	valueSrc := stats.NewSource(stats.SubSeed(s.Seed, "values"))
	tight, lax := s.Horizon.TightValue, s.Horizon.LaxValue
	if lax == 0 {
		lax = 1
	}

	wl.Queries = make([]core.Query, s.NQueries)
	for i := range wl.Queries {
		k := 1 + pickSrc.Intn(s.MaxTablesPerQuery)
		var picked []int
		if zipf == nil {
			picked = pickSrc.PickN(s.Tables, k)
		} else {
			picked = zipfPickN(zipf, ranking, pickSrc, k)
		}
		tables := make([]core.TableID, len(picked))
		for j, idx := range picked {
			tables[j] = wl.Tables[idx]
		}
		bv := lax
		if s.Horizon.TightFraction > 0 && valueSrc.Float64() < s.Horizon.TightFraction {
			bv = tight
		}
		wl.Queries[i] = core.Query{
			ID:            fmt.Sprintf("%s-q%04d", s.Name, i+1),
			Tables:        tables,
			BusinessValue: bv,
			SubmitAt:      arrivals[i],
		}
	}

	if s.Outages != nil {
		wl.Outages = s.Outages.schedule(s.Sites, stats.NewSource(stats.SubSeed(s.Seed, "outages")))
	}
	return wl, nil
}

// times generates n sorted arrival instants for the spec.
func (a ArrivalSpec) times(n int, src *stats.Source) []core.Time {
	switch a.Shape {
	case ArrivalDiurnal, ArrivalFlashCrowd:
		return a.thinnedTimes(n, src)
	case ArrivalBurstyPoisson:
		return a.burstyTimes(n, src)
	default:
		out := make([]core.Time, n)
		at := core.Time(0)
		for i := range out {
			at += src.Expo(a.Mean)
			out[i] = at
		}
		return out
	}
}

// rate is the instantaneous arrival rate at t (queries per minute), and
// maxRate its supremum — the envelope the thinning sampler draws under.
func (a ArrivalSpec) rate(t core.Time) float64 {
	base := 1 / a.Mean
	switch a.Shape {
	case ArrivalDiurnal:
		// Oscillate between the base rate and PeakFactor times it.
		phase := 0.5 + 0.5*math.Sin(2*math.Pi*t/a.Period)
		return base * (1 + (a.PeakFactor-1)*phase)
	case ArrivalFlashCrowd:
		if t >= a.FlashAt && t < a.FlashAt+a.FlashWidth {
			return base * a.FlashFactor
		}
		return base
	default:
		return base
	}
}

func (a ArrivalSpec) maxRate() float64 {
	base := 1 / a.Mean
	switch a.Shape {
	case ArrivalDiurnal:
		return base * a.PeakFactor
	case ArrivalFlashCrowd:
		return base * a.FlashFactor
	default:
		return base
	}
}

// thinnedTimes samples a non-homogeneous Poisson process by thinning
// (Lewis & Shedler): candidates arrive at the envelope rate and are
// accepted with probability rate(t)/maxRate.
func (a ArrivalSpec) thinnedTimes(n int, src *stats.Source) []core.Time {
	out := make([]core.Time, 0, n)
	maxRate := a.maxRate()
	at := core.Time(0)
	for len(out) < n {
		at += src.Expo(1 / maxRate)
		if src.Float64() <= a.rate(at)/maxRate {
			out = append(out, at)
		}
	}
	return out
}

// burstyTimes samples a compound Poisson process: burst epochs arrive
// with mean gap Mean×BurstMean (keeping the long-run rate near 1/Mean),
// each epoch carrying a uniform 1..2×BurstMean−1 queries whose offsets
// accumulate exponentially with mean BurstSpread.
func (a ArrivalSpec) burstyTimes(n int, src *stats.Source) []core.Time {
	out := make([]core.Time, 0, n)
	epoch := core.Time(0)
	sizeRange := int(2*a.BurstMean) - 1
	if sizeRange < 1 {
		sizeRange = 1
	}
	for len(out) < n {
		epoch += src.Expo(a.Mean * a.BurstMean)
		size := 1 + src.Intn(sizeRange)
		at := epoch
		for j := 0; j < size && len(out) < n; j++ {
			if j > 0 {
				at += src.Expo(a.BurstSpread)
			}
			out = append(out, at)
		}
	}
	// Burst tails can overrun the next epoch; the stream must still be an
	// arrival-ordered sequence.
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// schedule draws the storm windows: start gaps exponential, durations
// exponential, and a correlated fraction of the remote sites (numbered
// from 1; site 0 is the DSS itself and never fails) down per storm.
func (o OutageSpec) schedule(sites int, src *stats.Source) []Outage {
	perStorm := int(float64(sites) * o.SiteFraction)
	if perStorm < 1 {
		perStorm = 1
	}
	var out []Outage
	at := core.Time(0)
	for i := 0; i < o.Storms; i++ {
		at += src.Expo(o.MeanGap)
		end := at + src.Expo(o.MeanDuration)
		for _, idx := range src.PickN(sites, perStorm) {
			out = append(out, Outage{Site: core.SiteID(idx + 1), Start: at, End: end})
		}
	}
	// Deterministic presentation order: by start, then site.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Site < out[j].Site
	})
	return out
}
