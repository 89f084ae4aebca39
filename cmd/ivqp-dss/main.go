// Command ivqp-dss runs the local federation/DSS server: it discovers the
// tables served by each remote site, replicates a chosen subset locally on
// synchronization cycles, and answers client SQL with information-value-
// driven plans.
//
//	ivqp-dss -addr :7100 \
//	    -remote 1=127.0.0.1:7101 -remote 2=127.0.0.1:7102 \
//	    -replicate customer=30s,nation=2m,region=2m \
//	    -views "SELECT t_account, sum(t_amount) FROM trades GROUP BY t_account" \
//	    -lambda-cl 0.01 -lambda-sl 0.05 -timescale 10
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ivdss/internal/cluster"
	"ivdss/internal/core"
	"ivdss/internal/scheduler"
	"ivdss/internal/server"
	"ivdss/internal/synth"
)

// viewFlags accumulates repeated -views SQL flags.
type viewFlags []string

func (v *viewFlags) String() string { return strings.Join(*v, "; ") }

func (v *viewFlags) Set(sql string) error {
	if strings.TrimSpace(sql) == "" {
		return fmt.Errorf("empty view SQL")
	}
	*v = append(*v, sql)
	return nil
}

// remoteFlags accumulates repeated -remote site=addr flags.
type remoteFlags map[core.SiteID]string

func (r remoteFlags) String() string { return fmt.Sprintf("%v", map[core.SiteID]string(r)) }

func (r remoteFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want site=addr, got %q", v)
	}
	site, err := strconv.Atoi(parts[0])
	if err != nil || site < 1 {
		return fmt.Errorf("invalid site id %q", parts[0])
	}
	r[core.SiteID(site)] = parts[1]
	return nil
}

// parsePeers parses the -peers spec: id=addr,...
func parsePeers(spec string) (map[int]string, error) {
	out := map[int]string{}
	if spec == "" {
		return out, nil
	}
	for _, item := range strings.Split(spec, ",") {
		parts := strings.SplitN(strings.TrimSpace(item), "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("want id=addr, got %q", item)
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil || id < 0 {
			return nil, fmt.Errorf("invalid shard id %q", parts[0])
		}
		out[id] = parts[1]
	}
	return out, nil
}

// parseTenants parses the -tenants spec: name=weight,...
func parseTenants(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, item := range strings.Split(spec, ",") {
		parts := strings.SplitN(strings.TrimSpace(item), "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("want tenant=weight, got %q", item)
		}
		w, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("invalid weight for tenant %q", parts[0])
		}
		out[parts[0]] = w
	}
	return out, nil
}

func parseReplicate(spec string) (map[core.TableID]time.Duration, error) {
	out := map[core.TableID]time.Duration{}
	if spec == "" {
		return out, nil
	}
	for _, item := range strings.Split(spec, ",") {
		parts := strings.SplitN(strings.TrimSpace(item), "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("want table=period, got %q", item)
		}
		period, err := time.ParseDuration(parts[1])
		if err != nil {
			return nil, fmt.Errorf("period for %s: %w", parts[0], err)
		}
		out[core.TableID(strings.ToLower(parts[0]))] = period
	}
	return out, nil
}

func main() {
	if err := cli(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ivqp-dss:", err)
		os.Exit(1)
	}
}

// cli declares the flags on fs, parses args and serves until interrupted.
func cli(fs *flag.FlagSet, args []string) error {
	addr := fs.String("addr", "127.0.0.1:7100", "listen address")
	remotes := remoteFlags{}
	fs.Var(remotes, "remote", "remote site as site=addr (repeatable)")
	replicate := fs.String("replicate", "", "replication plan as table=period,... (e.g. customer=30s,nation=2m)")
	views := viewFlags{}
	fs.Var(&views, "views", "materialized view SQL — a single-table aggregate the view answers (repeatable)")
	viewPeriod := fs.Duration("view-period", 0, "refresh period for every -views view (0 = default 10s); views share the -sync-budget with replicas")
	lambdaCL := fs.Float64("lambda-cl", .01, "computational-latency discount rate per experiment minute")
	lambdaSL := fs.Float64("lambda-sl", .01, "synchronization-latency discount rate per experiment minute")
	timescale := fs.Float64("timescale", 1.0/60, "experiment minutes per wall second (1/60 = real time)")
	calibration := fs.String("calibration", "", "JSON file to load learned plan costs from at startup and save to on shutdown")
	timeout := fs.Duration("timeout", 0, "deadline for each remote call (dial and per round trip; 0 = server default)")
	epsilon := fs.Float64("epsilon", 0, "value-expiry threshold: shed queries whose projected IV falls below it (0 = server default, negative disables)")
	workers := fs.Int("workers", 0, "execution worker pool size (0 = server default)")
	queue := fs.Int("queue", 0, "admission queue depth; arrivals beyond it are shed (0 = server default)")
	mqoWindow := fs.Duration("mqo-window", 0, "micro-batch window: hold ad hoc arrivals this long (wall clock) and schedule them as one MQO workload (0 = dispatch immediately)")
	agingCoeff := fs.Float64("aging", 0, "aging coefficient: boost queued queries by coeff*wait^exponent so low-value reports cannot starve (0 = off)")
	agingExp := fs.Float64("aging-exponent", 0, "aging exponent, must be > 1 (0 = default 1.5)")
	gaSeed := fs.Int64("ga-seed", 0, "GA ordering seed for batch/micro-batch MQO (0 = server default)")
	retrySeed := fs.Int64("retry-seed", 0, "seed for remote-call retry backoff jitter (0 = server default)")
	gaPopulation := fs.Int("ga-population", 0, "GA population size (0 = default 40)")
	gaGenerations := fs.Int("ga-generations", 0, "GA generations (0 = default 50)")
	syncBudget := fs.Float64("sync-budget", 0, "replication bandwidth budget in bytes per wall second shared by all tables (0 = unlimited)")
	adaptiveSync := fs.Bool("adaptive-sync", false, "re-divide the sync budget by observed IV loss to staleness and review replica placement online")
	syncAdjust := fs.Duration("sync-adjust", 0, "cadence controller interval for -adaptive-sync (0 = default 10s)")
	scenario := fs.String("scenario", "", "derive the replication plan from this named scenario preset (see ivqp-bench -fig scenario); needs -scenario-tables")
	scenarioTables := fs.String("scenario-tables", "", "comma-separated live table names the -scenario replica budget draws from, hottest first")
	shards := fs.Int("shards", 0, "run N in-process front-end shards on consecutive ports starting at -addr; each replicates the slice of -replicate it owns under the cluster shard map")
	shardID := fs.Int("shard-id", 0, "this front-end's shard ID when clustering across processes (use with -peers)")
	peersSpec := fs.String("peers", "", "peer shards as id=addr,... for multi-process clustering (e.g. 1=127.0.0.1:7201,2=127.0.0.1:7202)")
	stealHighWater := fs.Int("steal-highwater", 0, "hand whole requests to the least-loaded covering peer once the local queue reaches this depth (0 = no work-stealing)")
	gossipInterval := fs.Duration("gossip-interval", 0, "mean gap between anti-entropy gossip rounds (0 = default 2s)")
	gossipSeed := fs.Int64("gossip-seed", 0, "seed for gossip round jitter and peer choice (0 = default 1)")
	tenants := fs.String("tenants", "", "tenant weights as name=weight,...: turns queue-full refusal into weighted fair shedding by IV per budget unit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tenantWeights, err := parseTenants(*tenants)
	if err != nil {
		return err
	}

	cfg := server.DSSConfig{
		Rates:           core.DiscountRates{CL: *lambdaCL, SL: *lambdaSL},
		TimeScale:       *timescale,
		RetrySeed:       *retrySeed,
		DialTimeout:     *timeout,
		Epsilon:         *epsilon,
		Workers:         *workers,
		QueueDepth:      *queue,
		MQOWindow:       *mqoWindow,
		Aging:           core.Aging{Coefficient: *agingCoeff, Exponent: *agingExp},
		GA:              scheduler.GAConfig{Seed: *gaSeed, Population: *gaPopulation, Generations: *gaGenerations},
		SyncBudget:      *syncBudget,
		AdaptiveSync:    *adaptiveSync,
		SyncAdjustEvery: *syncAdjust,
		StealHighWater:  *stealHighWater,
		GossipInterval:  *gossipInterval,
		GossipSeed:      *gossipSeed,
		Tenants:         tenantWeights,
	}
	for _, sql := range views {
		cfg.Views = append(cfg.Views, server.ViewSpec{SQL: sql, Period: *viewPeriod})
	}
	if *shards > 1 {
		if *peersSpec != "" {
			return fmt.Errorf("-shards runs an in-process cluster; -peers is for multi-process mode, pick one")
		}
		return runCluster(*addr, *shards, remotes, *replicate, *scenario, *scenarioTables, cfg)
	}
	if *peersSpec != "" {
		peers, err := parsePeers(*peersSpec)
		if err != nil {
			return err
		}
		cfg.ShardID = *shardID
		cfg.Peers = peers
	}
	return run(*addr, remotes, *replicate, *scenario, *scenarioTables, cfg, *calibration)
}

// runCluster starts N front-end shards inside one process on consecutive
// ports, each a full DSSServer wired to every remote site: shard i listens
// on -addr's port + i, replicates the tables it owns under the canonical
// cluster shard map, and gossips with the other N−1 shards. Clients route
// with the same shard map (ivqp-workload with the shard addresses in -addr).
func runCluster(addr string, n int, remotes remoteFlags, replicate, scenario, scenarioTables string, cfg server.DSSConfig) error {
	plan, err := parseReplicate(replicate)
	if err != nil {
		return err
	}
	if scenario != "" {
		if len(plan) > 0 {
			return fmt.Errorf("-scenario and -replicate both set: pick one replication plan source")
		}
		plan, err = scenarioReplicate(scenario, scenarioTables, cfg.TimeScale)
		if err != nil {
			return err
		}
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-shards needs -addr as host:port, got %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port <= 0 {
		return fmt.Errorf("-shards needs a numeric -addr port, got %q", portStr)
	}
	smap, err := cluster.NewShardMap(n)
	if err != nil {
		return err
	}
	tables := make([]core.TableID, 0, len(plan))
	for t := range plan {
		tables = append(tables, t)
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i] < tables[j] })

	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = net.JoinHostPort(host, strconv.Itoa(port+i))
	}
	var servers []*server.DSSServer
	defer func() {
		for _, dss := range servers {
			dss.Close()
		}
	}()
	for i := 0; i < n; i++ {
		scfg := cfg
		scfg.ShardID = i
		scfg.Peers = make(map[int]string, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				scfg.Peers[j] = addrs[j]
			}
		}
		scfg.Remotes = remotes
		scfg.Replicate = make(map[core.TableID]time.Duration)
		for _, t := range tables {
			if smap.Owner(t) == cluster.ShardID(i) {
				scfg.Replicate[t] = plan[t]
			}
		}
		dss, err := server.NewDSSServer(scfg)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		servers = append(servers, dss)
		bound, err := dss.Listen(addrs[i])
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		fmt.Printf("ivqp-dss: shard %d/%d on %s (%d replicas)\n", i, n, bound, len(scfg.Replicate))
	}
	fmt.Printf("ivqp-dss: %d-shard cluster up (%d remote sites, %d replicated tables, steal high water %d)\n",
		n, len(remotes), len(plan), cfg.StealHighWater)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("ivqp-dss: shutting down cluster")
	return nil
}

// scenarioReplicate derives a live replication plan from a scenario
// preset: the scenario's replica budget takes the first tables of the
// provided list (hottest first, the operator's call), each synchronized
// at the scenario's mean cycle scaled from experiment minutes to wall
// time — so a live cluster mirrors the deployment the DES benched.
func scenarioReplicate(name, tables string, timescale float64) (map[core.TableID]time.Duration, error) {
	sc, err := synth.Preset(name)
	if err != nil {
		return nil, err
	}
	if timescale <= 0 {
		return nil, fmt.Errorf("-timescale must be positive with -scenario")
	}
	var names []string
	for _, t := range strings.Split(tables, ",") {
		if t = strings.TrimSpace(t); t != "" {
			names = append(names, strings.ToLower(t))
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-scenario %s needs -scenario-tables naming the live tables its %d replicas draw from", name, sc.Replicas)
	}
	if sc.Replicas < len(names) {
		names = names[:sc.Replicas]
	}
	period := time.Duration(sc.SyncMean / timescale * float64(time.Second))
	if period <= 0 {
		return nil, fmt.Errorf("scenario %s has no sync cycle (replicas %d, sync mean %v)", name, sc.Replicas, sc.SyncMean)
	}
	plan := make(map[core.TableID]time.Duration, len(names))
	for _, n := range names {
		plan[core.TableID(n)] = period
	}
	return plan, nil
}

func run(addr string, remotes remoteFlags, replicate, scenario, scenarioTables string, cfg server.DSSConfig, calibration string) error {
	plan, err := parseReplicate(replicate)
	if err != nil {
		return err
	}
	if scenario != "" {
		if len(plan) > 0 {
			return fmt.Errorf("-scenario and -replicate both set: pick one replication plan source")
		}
		plan, err = scenarioReplicate(scenario, scenarioTables, cfg.TimeScale)
		if err != nil {
			return err
		}
	}
	cfg.Remotes = remotes
	cfg.Replicate = plan
	dss, err := server.NewDSSServer(cfg)
	if err != nil {
		return err
	}
	if calibration != "" {
		if f, err := os.Open(calibration); err == nil {
			loadErr := dss.LoadCalibration(f)
			f.Close()
			if loadErr != nil {
				return loadErr
			}
			fmt.Printf("ivqp-dss: loaded %d calibrated plan configurations\n", dss.CalibrationLen())
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	bound, err := dss.Listen(addr)
	if err != nil {
		return err
	}
	fmt.Printf("ivqp-dss: federation server on %s (%d remote sites, %d replicas, %d views, λcl=%g λsl=%g)\n",
		bound, len(remotes), len(plan), len(cfg.Views), cfg.Rates.CL, cfg.Rates.SL)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("ivqp-dss: shutting down")
	if calibration != "" {
		f, err := os.Create(calibration)
		if err != nil {
			return err
		}
		saveErr := dss.SaveCalibration(f)
		// A close failure can mean lost buffered bytes: the save did not
		// durably happen.
		if closeErr := f.Close(); saveErr == nil {
			saveErr = closeErr
		}
		if saveErr != nil {
			return saveErr
		}
		fmt.Printf("ivqp-dss: saved %d calibrated plan configurations\n", dss.CalibrationLen())
	}
	return dss.Close()
}
