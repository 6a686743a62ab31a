package core

import (
	"fmt"
	"time"

	"tinman/internal/netsim"
	"tinman/internal/obs"
	"tinman/internal/power"
	"tinman/internal/taint"
)

// CostModel converts VM work into virtual time. The device models a 1.2 GHz
// OMAP4460 running an interpreting Dalvik; the trusted node a 2.8 GHz
// quad-core i5 (§6) — roughly 5–6× faster per instruction.
type CostModel struct {
	// DeviceNsPerInstr is the device's cost per VM instruction. One VM
	// instruction stands for a coarse unit of app work (a bytecode basic
	// block plus framework overhead), so the figure is far above a raw
	// cycle time.
	DeviceNsPerInstr int64
	// NodeNsPerInstr is the trusted node's cost per VM instruction.
	NodeNsPerInstr int64
	// SerializeNsPerByte models DSM state (de)serialization CPU cost on
	// each side (Java serialization plus DSM bookkeeping).
	SerializeNsPerByte int64
	// ServerProcessing is an origin server's request handling time (web
	// login backends of the era took high hundreds of milliseconds).
	ServerProcessing time.Duration
	// SSLStateSetup is the device-side cost of extracting and shipping SSL
	// session state plus arming the packet filter (§3.2/§3.6) per injected
	// send.
	SSLStateSetup time.Duration
	// NodeInjectSetup is the trusted node's per-injection cost: policy
	// evaluation, malware lookup, session resume and audit.
	NodeInjectSetup time.Duration
}

// DefaultCostModel returns parameters calibrated so the end-to-end login
// latencies land in the paper's regime (≈4 s baseline over Wi-Fi, ≈+2 s
// under TinMan, split ≈0.8 s DSM / ≈1.2 s SSL+TCP).
func DefaultCostModel() CostModel {
	return CostModel{
		DeviceNsPerInstr:   800,
		NodeNsPerInstr:     175,
		SerializeNsPerByte: 250,
		ServerProcessing:   1600 * time.Millisecond,
		SSLStateSetup:      550 * time.Millisecond,
		NodeInjectSetup:    250 * time.Millisecond,
	}
}

// FaultOptions tunes the device↔node control channel's fault tolerance
// (§5.4): per-request deadlines, the retry schedule, and the circuit
// breaker that switches the device into cor-degraded mode. The zero value
// means the defaults noted on each field.
type FaultOptions struct {
	// RequestTimeout bounds one control round-trip attempt (default 30s).
	RequestTimeout time.Duration
	// ConnectTimeout bounds a control (re)connect attempt (default 10s).
	ConnectTimeout time.Duration
	// MaxAttempts is the number of round-trip attempts per logical request
	// before giving up (default 4).
	MaxAttempts int
	// RetryBackoffBase/RetryBackoffMax shape the capped-exponential wait
	// between attempts (defaults 500ms / 8s).
	RetryBackoffBase time.Duration
	RetryBackoffMax  time.Duration
	// BreakerThreshold consecutive request failures open the circuit
	// (default 3); it stays open for BreakerCooldown (default 30s) before a
	// probe is allowed.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (f FaultOptions) withDefaults() FaultOptions {
	if f.RequestTimeout <= 0 {
		f.RequestTimeout = 30 * time.Second
	}
	if f.ConnectTimeout <= 0 {
		f.ConnectTimeout = 10 * time.Second
	}
	if f.MaxAttempts <= 0 {
		f.MaxAttempts = 4
	}
	if f.RetryBackoffBase <= 0 {
		f.RetryBackoffBase = 500 * time.Millisecond
	}
	if f.RetryBackoffMax <= 0 {
		f.RetryBackoffMax = 8 * time.Second
	}
	if f.BreakerThreshold <= 0 {
		f.BreakerThreshold = 3
	}
	if f.BreakerCooldown <= 0 {
		f.BreakerCooldown = 30 * time.Second
	}
	return f
}

// Addresses of the fixed hosts.
const (
	DeviceAddr = "10.0.0.2"
	NodeAddr   = "10.8.0.1"
	// ControlPort carries the offload control plane on the trusted node.
	ControlPort = 7001
)

// Config assembles a World.
type Config struct {
	// Seed drives all simulation randomness.
	Seed int64
	// Profile is the device's wireless uplink (netsim.WiFi or
	// netsim.ThreeG). Defaults to Wi-Fi.
	Profile netsim.Profile
	// Cost is the compute-cost model; zero value means DefaultCostModel.
	Cost CostModel
	// DevicePolicy is the device-side taint policy; defaults to
	// taint.Asymmetric. (taint.Full reproduces the "full-fledged tainting
	// on the client" comparison; taint.Off models a non-TinMan device.)
	DevicePolicy taint.Policy
	// CorIdleWindow is the trusted node's migrate-back threshold in
	// instructions (§3.1 case 1). Defaults to 1000000.
	CorIdleWindow uint64
	// DeviceID names the device for policy/audit.
	DeviceID string
	// TinManEnabled toggles the whole machinery; when false the device
	// runs apps locally with no tainting and sends cor *plaintext* itself
	// (the unmodified-Android baseline — only usable in simulations, where
	// it demonstrates what TinMan prevents). Placeholder materialization
	// returns the plaintext, so the baseline actually logs in.
	TinManEnabled bool
	// BaselinePlaintexts supplies the baseline's secrets when TinManEnabled
	// is false (keyed by cor ID).
	BaselinePlaintexts map[string]string
	// Fault tunes the control channel's retry/deadline/breaker behavior;
	// the zero value takes the FaultOptions defaults.
	Fault FaultOptions
	// NoWarmup disables the speculative DSM warm-up pipeline, forcing every
	// first offload onto the cold full-snapshot path. Benchmarks use it for
	// the cold column of the warm-vs-cold comparison; correctness never
	// depends on the setting.
	NoWarmup bool
}

// World is one simulation universe: a device, a trusted node, origin
// servers, the network between them and the device's battery.
type World struct {
	Net    *netsim.Net
	Cost   CostModel
	Fault  FaultOptions
	Device *Device
	Node   *TrustedNode

	// Obs records the offload lifecycle as a span tree on the virtual clock.
	// nil (the default) disables tracing at zero cost; attach with Observe.
	Obs *obs.Tracer

	// Power model components.
	Battery *power.Battery
	CPU     *power.Activity
	Radio   *power.Radio
	Display *power.Activity

	profile  netsim.Profile
	dns      map[string]string // domain -> address
	enabled  bool
	noWarmup bool
	// taintFactor slows device compute under client-side tainting (the
	// Fig 13 overhead applied to the cost model): 1.0 for Off, ~1.10 for
	// asymmetric, ~1.20 for full client tainting.
	taintFactor float64
}

// NewWorld builds the universe and connects the device to the trusted node.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Profile.Name == "" {
		cfg.Profile = netsim.WiFi
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	if cfg.DevicePolicy.Name() == "" {
		cfg.DevicePolicy = taint.Asymmetric
	}
	if cfg.CorIdleWindow == 0 {
		cfg.CorIdleWindow = 1_000_000
	}
	if cfg.DeviceID == "" {
		cfg.DeviceID = "galaxy-nexus-1"
	}

	w := &World{
		Net:         netsim.New(cfg.Seed),
		Cost:        cfg.Cost,
		Fault:       cfg.Fault.withDefaults(),
		profile:     cfg.Profile,
		dns:         make(map[string]string),
		enabled:     cfg.TinManEnabled,
		noWarmup:    cfg.NoWarmup,
		taintFactor: 1.0,
	}
	switch cfg.DevicePolicy.Name() {
	case taint.Asymmetric.Name():
		w.taintFactor = 1.10
	case taint.Full.Name():
		w.taintFactor = 1.20
	}

	// Battery with the standard component set.
	w.Battery = power.NewBattery(power.GalaxyNexusCapacityJ)
	w.Battery.Attach(power.NewConstant("base", power.BaseIdleW))
	w.CPU = power.NewActivity("cpu", power.CPUActiveW, 0)
	w.Battery.Attach(w.CPU)
	if cfg.Profile.Name == "3g" {
		w.Radio = power.NewThreeGRadio()
	} else {
		w.Radio = power.NewWiFiRadio()
	}
	w.Battery.Attach(w.Radio)
	w.Display = power.NewActivity("display", power.DisplayOnW, 0)
	w.Battery.Attach(w.Display)

	devHost := w.Net.AddHost(DeviceAddr)
	nodeHost := w.Net.AddHost(NodeAddr)
	w.Net.Connect(devHost, nodeHost, cfg.Profile)

	w.Node = newTrustedNode(w, nodeHost, cfg.CorIdleWindow)
	w.Device = newDevice(w, devHost, cfg.DeviceID, cfg.DevicePolicy, cfg.BaselinePlaintexts)

	if cfg.TinManEnabled {
		if err := w.Device.connectControl(); err != nil {
			return nil, fmt.Errorf("core: connecting control plane: %v", err)
		}
	}
	return w, nil
}

// Observe attaches an obs tracer running on the world's virtual clock and
// bridges packet deliveries into it (replacing any netsim tracer attached
// earlier), so wire traffic nests under the span that caused it. capn bounds
// the flight recorder (0 = default). Device and node spans share the one
// tracer: the simulation event loop is single-threaded, and the node side
// attaches via wire-propagated trace context, never the span stack.
func (w *World) Observe(capn int) *obs.Tracer {
	w.Obs = obs.New(obs.Options{Now: w.Net.Now, Cap: capn})
	w.Net.Trace(&netsim.Tracer{Cap: obsPacketCap, Obs: w.Obs})
	// Surface the replacer's middlebox-style silent drops as instant events.
	w.Node.Replacer.Obs = w.Obs
	return w.Obs
}

// obsPacketCap bounds the bridging netsim tracer's own buffer; the obs
// recorder is bounded separately.
const obsPacketCap = 16384

// TinManEnabled reports whether the offload machinery is active.
func (w *World) TinManEnabled() bool { return w.enabled }

// DeviceNodeLink returns the wireless link between the device and the
// trusted node — the one chaos scenarios partition and flap.
func (w *World) DeviceNodeLink() *netsim.Link { return w.Device.Host.Link(NodeAddr) }

// CrashNode powers the trusted node's host off: it sends nothing and
// silently loses everything in flight, like a machine yanked off the
// network mid-conversation.
func (w *World) CrashNode() { w.Node.Host.SetDown(true) }

// RestartNode powers the node's host back on and drops all of its TCP
// state, modeling a reboot: established control connections die with a
// RST and the device's reconnect path re-establishes them on demand. The
// node service's durable state (vault, policy, audit, installed apps)
// survives, as §2.5 requires of a trusted node.
func (w *World) RestartNode() {
	w.Node.Host.SetDown(false)
	w.Node.Stack.AbortAll()
}

// Profile returns the device uplink profile.
func (w *World) Profile() netsim.Profile { return w.profile }

// AddServerHost creates an origin-server host linked to the device (over
// the wireless profile) and the trusted node (over a wired path), and
// registers its domain name.
func (w *World) AddServerHost(domain, addr string) *netsim.Host {
	h := w.Net.AddHost(addr)
	w.Net.Connect(w.Device.Host, h, w.profile)
	w.Net.Connect(w.Node.Host, h, netsim.Wired)
	w.dns[domain] = addr
	return h
}

// Resolve maps a domain to its address.
func (w *World) Resolve(domain string) (string, error) {
	addr, ok := w.dns[domain]
	if !ok {
		return "", fmt.Errorf("core: unknown domain %q", domain)
	}
	return addr, nil
}

// ReverseResolve maps an address back to its domain (for policy reporting).
func (w *World) ReverseResolve(addr string) string {
	for d, a := range w.dns {
		if a == addr {
			return d
		}
	}
	return addr
}

// advanceCompute models local computation: the clock moves and, on the
// device, the CPU burns power.
func (w *World) advanceCompute(device bool, instrs uint64) {
	var ns int64
	if device {
		ns = w.Cost.DeviceNsPerInstr
	} else {
		ns = w.Cost.NodeNsPerInstr
	}
	d := time.Duration(int64(instrs) * ns)
	if device && w.taintFactor > 1 {
		d = time.Duration(float64(d) * w.taintFactor)
	}
	if d <= 0 {
		return
	}
	if device {
		w.CPU.NoteActive(w.Net.Now(), d)
		w.Net.Advance(d)
	} else {
		// Node compute costs wall-clock but not device battery; the device
		// CPU idles while the thread runs remotely.
		w.Net.Advance(d)
	}
}

// advanceDeviceWork models non-VM device CPU work of duration d (state
// serialization, SSL bookkeeping): the clock moves and the CPU burns power.
func (w *World) advanceDeviceWork(d time.Duration) {
	if d <= 0 {
		return
	}
	w.CPU.NoteActive(w.Net.Now(), d)
	w.Net.Advance(d)
}

// noteDeviceTransfer charges the radio for moving n bytes over the uplink.
func (w *World) noteDeviceTransfer(n int) {
	d := w.profile.Latency
	if w.profile.Bandwidth > 0 {
		d += time.Duration(float64(n) / w.profile.Bandwidth * float64(time.Second))
	}
	w.Radio.NoteTransfer(w.Net.Now(), d)
}
