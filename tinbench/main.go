// Command tinbench is TinMan's benchmark: it builds store-backed trusted
// nodes the way tinman-node -store does, drives one workload on the wall
// clock in a closed loop, checks every output, and prints one JSON result
// line.
//
//	tinbench --workload login --seed 1 --seconds 10 --trace 0
//
// Workloads: login, cold_login, reseal, fleet (see NOTES.md). With
// --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, timed by probes that call each layer's
// public functions from this package. The seed is the only input: it
// fixes the netsim seed, the app and device orders, and the positions of
// denials, policy pushes, revocations and handoffs.
//
// The exit status is 0 only when every operation succeeded and every
// check passed.
package main

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"tinman/internal/apps"
	"tinman/internal/audit"
	"tinman/internal/node"
)

// setupRounds is how many times a run builds its system; setup_s is the
// median, and the last build is the one measured.
const setupRounds = 9

// env is what one seed generates, shared by every part of a run.
type env struct {
	seed    int64
	netSeed int64
	// dir is the run's scratch directory on the real filesystem.
	dir string
	rng *rand.Rand
	// order is the seeded permutation of the paper apps.
	order []string
	// originKey is the origins' TLS key; generated once per run, outside
	// the timed set-up, as it belongs to the origins, not the node.
	originKey *rsa.PrivateKey
}

func newEnv(seed int64, dir string, key *rsa.PrivateKey) *env {
	rng := rand.New(rand.NewSource(seed))
	e := &env{seed: seed, netSeed: rng.Int63(), dir: dir, rng: rng, originKey: key}
	for _, i := range rng.Perm(len(apps.LoginApps)) {
		e.order = append(e.order, apps.LoginApps[i].Name)
	}
	return e
}

func (e *env) appOrder() []string { return append([]string(nil), e.order...) }

// phase is one timed stretch of a workload.
type phase struct {
	// lat holds the latency of every successful op, and ends its
	// completion time from the start of the phase, untimed work excluded.
	lat  []time.Duration
	ends []time.Duration
	// kind, when set, names each op's kind (the app of a login), for p50.
	kind      []string
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	// counts are the phase's per-op layer counts, keyed by metric name.
	counts map[string]float64
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// rig is one built system under one workload.
type rig interface {
	// warm runs untimed ops so lazy set-up is behind the timed phase.
	warm() error
	// run drives the closed loop for d and returns the phase. An error
	// means the run could not go on; op failures are counted in the phase.
	run(d time.Duration, traced bool) (phase, error)
	// check runs the end-of-run correctness checks.
	check() error
	close()
}

type workload struct {
	// tail is the latency percentile reported as tail_ms, chosen so a run
	// leaves at least ten samples beyond it.
	tail  float64
	setup func(e *env, dir string) (rig, error)
}

var workloads = map[string]workload{
	"login": {tail: 0.95, setup: func(e *env, dir string) (rig, error) { return setupLogin(e, dir, false) }},
	"cold_login": {tail: 0.95, setup: func(e *env, dir string) (rig, error) {
		return setupLogin(e, dir, true)
	}},
	"reseal": {tail: 0.99, setup: setupReseal},
	"fleet":  {tail: 0.99, setup: setupFleet},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: login, cold_login, reseal or fleet")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: tinbench --workload login|cold_login|reseal|fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*name, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tinbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tinbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run in a scratch directory under
// .bench_build in the working directory, removed on return.
func run(name string, w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	key, err := rsa.GenerateKey(crand.Reader, 1024)
	if err != nil {
		return nil, err
	}
	e := newEnv(seed, dir, key)
	printHeader(name, e, w, d, traced)

	var (
		r      rig
		setups []float64
	)
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	for i := 0; i < setupRounds; i++ {
		if r != nil {
			r.close()
			r = nil
		}
		// Each round starts from the same seed state, so the last build is
		// the same system as the first.
		re := newEnv(seed, dir, key)
		t0 := time.Now()
		built, err := w.setup(re, filepath.Join(dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		r, e = built, re
	}
	if err := r.warm(); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	var phases []phase
	if !traced {
		p, err := r.run(d, false)
		if err != nil {
			return nil, err
		}
		phases = append(phases, p)
		res.Metrics["setup_s"] = metric{medianF(setups), "s"}
		res.Metrics["p50_ms"] = metric{p50(p), "ms"}
		res.Metrics["tail_ms"] = metric{tail(p, w.tail), "ms"}
		res.Metrics["ops_per_s"] = metric{opsPerSec(p), "1/s"}
		fmt.Printf("# ops %d ok, tail_ms is p%.0f with %d samples beyond it\n",
			len(p.lat), w.tail*100, len(p.lat)-int(w.tail*float64(len(p.lat))+0.5))
	} else {
		// Half the time traced, between two untraced quarters so drift
		// over the run cancels out of the tracing overhead; the traced
		// half's counts feed the per-layer metrics.
		before, err := r.run(d/4, false)
		if err != nil {
			return nil, err
		}
		tr, err := r.run(d/2, true)
		if err != nil {
			return nil, err
		}
		after, err := r.run(d/4, false)
		if err != nil {
			return nil, err
		}
		phases = append(phases, before, tr, after)
		plain := phase{
			lat:  append(append([]time.Duration(nil), before.lat...), after.lat...),
			kind: append(append([]string(nil), before.kind...), after.kind...),
		}
		layers, err := layerMetrics(name, e, r, plain, tr)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for k, v := range layers {
			res.Metrics[k] = v
		}
	}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "tinbench: %d of %d ops failed; first: %v\n", p.failed, p.attempted, p.firstErr)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if err := r.check(); err != nil {
		fmt.Fprintf(os.Stderr, "tinbench: end-of-run check: %v\n", err)
		res.Correct = false
	}
	return res, nil
}

// p50 is the median op latency in ms. When ops are of several kinds — the
// four apps' logins, whose latencies form overlapping clusters — it is the
// mean over kinds of each kind's median: the plain median of the mixture
// sits at the edge between two apps' clusters and jumps between them from
// run to run.
func p50(p phase) float64 {
	if p.kind == nil {
		lat := append([]time.Duration(nil), p.lat...)
		sortDurations(lat)
		return ms(quantile(lat, 0.5))
	}
	byKind := map[string][]time.Duration{}
	for i, k := range p.kind {
		byKind[k] = append(byKind[k], p.lat[i])
	}
	var sum float64
	for _, lat := range byKind {
		sortDurations(lat)
		sum += ms(quantile(lat, 0.5))
	}
	return sum / float64(len(byKind))
}

// tail is the q-quantile of op latency in ms. The phase's ops, in
// completion order, are cut into the most chunks that still leave ten
// samples beyond the quantile in each, at most one per second of the
// phase, and the result is the median of the chunks' quantiles: a burst of
// slow fsyncs from a neighbour sets one chunk's tail, not the run's.
func tail(p phase, q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	n := min(len(p.lat)/need, int(p.elapsed/time.Second))
	if n < 2 {
		lat := append([]time.Duration(nil), p.lat...)
		sortDurations(lat)
		return ms(quantile(lat, q))
	}
	order := make([]int, len(p.lat))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return p.ends[order[i]] < p.ends[order[j]] })
	k := len(order) / n
	tails := make([]float64, 0, n)
	for c := 0; c < n; c++ {
		chunk := make([]time.Duration, 0, k)
		for _, i := range order[c*k : (c+1)*k] {
			chunk = append(chunk, p.lat[i])
		}
		sortDurations(chunk)
		tails = append(tails, ms(quantile(chunk, q)))
	}
	return medianF(tails)
}

// opsPerSec is the completion rate in ops per second, as the median over
// consecutive chunks of about a second's worth of completions of each
// chunk's rate, so a stall confined to a second or two of a run does not
// move it. A phase shorter than two seconds gives its overall rate.
func opsPerSec(p phase) float64 {
	n := int(p.elapsed / time.Second)
	if n < 2 || len(p.ends) < 2*n {
		return float64(len(p.ends)) / p.elapsed.Seconds()
	}
	ends := append([]time.Duration(nil), p.ends...)
	sortDurations(ends)
	k := len(ends) / n
	rates := make([]float64, 0, n)
	prev := time.Duration(0)
	for i := 1; i <= n; i++ {
		last := ends[i*k-1]
		rates = append(rates, float64(k)/(last-prev).Seconds())
		prev = last
	}
	return medianF(rates)
}

type memSnap struct{ mallocs uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{mallocs: m.Mallocs}
}

// auditEntries returns every audit entry of one trusted node.
func auditEntries(svc *node.Service) []audit.Entry {
	entries, err := svc.AuditQuery(context.Background(), audit.Query{})
	if err != nil {
		return nil
	}
	return entries
}

// checkAuditGapFree requires each device's DeviceSeq values, across all
// the given entries, to be exactly 1..n.
func checkAuditGapFree(entries []audit.Entry) error {
	byDev := map[string][]uint64{}
	for _, en := range entries {
		if en.DeviceID != "" {
			byDev[en.DeviceID] = append(byDev[en.DeviceID], en.DeviceSeq)
		}
	}
	if len(byDev) == 0 {
		return errors.New("audit log holds no device entries")
	}
	for dev, seqs := range byDev {
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for i, s := range seqs {
			if s != uint64(i+1) {
				return fmt.Errorf("device %s: audit DeviceSeq %d at position %d (want %d)", dev, s, i+1, i+1)
			}
		}
	}
	return nil
}

// printHeader writes the run header: the ROADMAP's recording rule asks for
// the commit, Go version, GOMAXPROCS, CPU count and model, the store
// filesystem, the seed and the workload parameters beside every result.
func printHeader(name string, e *env, w workload, d time.Duration, traced bool) {
	h := map[string]any{
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"store_fs":   fsType(e.dir),
		"seed":       e.seed,
		"workload":   name,
		"params": map[string]any{
			"seconds":      d.Seconds(),
			"trace":        traced,
			"setup_rounds": setupRounds,
			"tail_pct":     w.tail * 100,
			"net_seed":     e.netSeed,
			"app_order":    e.order,
			"sessions":     sessions(),
			"devices":      devicePop,
		},
	}
	b, _ := json.Marshal(h)
	fmt.Printf("# header %s\n", b)
}

// commit is the VCS revision the binary was built from, as the go command
// stamps it when the build runs inside a git checkout; "unknown" elsewhere.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6a656a63: "virtiofs", 0x01021997: "9p", 0x6969: "nfs",
		0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// sessions is the number of load goroutines (and connections) of the
// reseal and fleet workloads: two device sessions, capped at the CPU count.
func sessions() int { return min(2, runtime.NumCPU()) }
