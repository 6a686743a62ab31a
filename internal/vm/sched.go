package vm

import (
	"fmt"

	"tinman/internal/taint"
)

// ThreadState is a scheduled thread's lifecycle state.
type ThreadState uint8

const (
	// ThreadRunnable threads are eligible for the next quantum.
	ThreadRunnable ThreadState = iota
	// ThreadBlocked threads wait on a monitor held by another thread.
	ThreadBlocked
	// ThreadMigrated threads stopped for DSM reasons and await the
	// offloading engine.
	ThreadMigrated
	// ThreadFinished threads completed (result or error recorded).
	ThreadFinished
)

var threadStateNames = [...]string{
	ThreadRunnable: "runnable", ThreadBlocked: "blocked",
	ThreadMigrated: "migrated", ThreadFinished: "finished",
}

func (s ThreadState) String() string {
	if int(s) < len(threadStateNames) {
		return threadStateNames[s]
	}
	return fmt.Sprintf("ThreadState(%d)", uint8(s))
}

// SchedThread is one thread under scheduler management.
type SchedThread struct {
	*Thread
	ID    int
	State ThreadState
	// Result and Err are set once State is ThreadFinished.
	Result Value
	Err    error
	// MigrateReason is set when State is ThreadMigrated.
	MigrateReason StopReason
	// waitingOn is the monitor (object ID) the thread is blocked on.
	waitingOn uint64
}

// Scheduler multiplexes several logical threads over one VM, round-robin
// with an instruction quantum — the multi-threading COMET's DSM supports
// (§2.4). Monitors provide real mutual exclusion between local threads:
// entering a monitor held by another local thread blocks until release.
//
// The scheduler chains the VM's monitor hooks: local contention is handled
// here; anything else (e.g. the DSM's happens-before table) sees the events
// afterwards. Threads that stop for migration reasons are parked in
// ThreadMigrated for the offloading engine to collect.
type Scheduler struct {
	VM *VM
	// Quantum is the per-slice instruction budget (default 10000).
	Quantum uint64

	threads []*SchedThread
	nextID  int
	current *SchedThread

	// Local monitor table: object ID -> holding thread (nil = free).
	owners  map[uint64]*SchedThread
	waiters map[uint64][]*SchedThread

	prevEnter func(*Object) bool
	prevExit  func(*Object)

	// Slices counts scheduling slices for fairness diagnostics.
	Slices uint64
}

// NewScheduler wraps a VM.
func NewScheduler(machine *VM) *Scheduler {
	s := &Scheduler{
		VM:      machine,
		Quantum: 10000,
		owners:  make(map[uint64]*SchedThread),
		waiters: make(map[uint64][]*SchedThread),
	}
	s.prevEnter = machine.Hooks.OnMonitorEnter
	s.prevExit = machine.Hooks.OnMonitorExit
	machine.Hooks.OnMonitorEnter = s.onMonitorEnter
	machine.Hooks.OnMonitorExit = s.onMonitorExit
	return s
}

// Spawn creates and enqueues a thread.
func (s *Scheduler) Spawn(m *Method, args ...Value) (*SchedThread, error) {
	th, err := s.VM.NewThread(m, args...)
	if err != nil {
		return nil, err
	}
	s.nextID++
	st := &SchedThread{Thread: th, ID: s.nextID, State: ThreadRunnable}
	s.threads = append(s.threads, st)
	return st, nil
}

// onMonitorEnter implements local mutual exclusion; uncontended monitors
// fall through to the chained hook.
func (s *Scheduler) onMonitorEnter(o *Object) bool {
	holder := s.owners[o.ID]
	if holder != nil && holder != s.current {
		// Contended: block the current thread before the instruction
		// executes (the interpreter leaves PC on the monenter).
		if s.current != nil {
			s.current.State = ThreadBlocked
			s.current.waitingOn = o.ID
			s.waiters[o.ID] = append(s.waiters[o.ID], s.current)
		}
		return true
	}
	if s.prevEnter != nil && s.prevEnter(o) {
		return true
	}
	s.owners[o.ID] = s.current
	return false
}

// onMonitorExit releases the monitor and wakes waiters.
func (s *Scheduler) onMonitorExit(o *Object) {
	if s.owners[o.ID] == s.current {
		delete(s.owners, o.ID)
	}
	for _, w := range s.waiters[o.ID] {
		if w.State == ThreadBlocked && w.waitingOn == o.ID {
			w.State = ThreadRunnable
			w.waitingOn = 0
		}
	}
	delete(s.waiters, o.ID)
	if s.prevExit != nil {
		s.prevExit(o)
	}
}

// Step runs one quantum of the next runnable thread. It reports whether any
// thread is still unfinished.
func (s *Scheduler) Step() (bool, error) {
	var pick *SchedThread
	// Round-robin: rotate so each call starts after the last-run thread.
	for i := 0; i < len(s.threads); i++ {
		t := s.threads[(int(s.Slices)+i)%len(s.threads)]
		if t.State == ThreadRunnable {
			pick = t
			break
		}
	}
	if pick == nil {
		// Anything blocked with nothing runnable is a local deadlock.
		for _, t := range s.threads {
			if t.State == ThreadBlocked {
				return false, fmt.Errorf("vm: scheduler deadlock: thread %d blocked on monitor #%d with no runnable threads",
					t.ID, t.waitingOn)
			}
		}
		return s.unfinished(), nil
	}

	s.Slices++
	s.current = pick
	pick.MaxInstrs = s.Quantum
	stop, err := pick.Run()
	s.current = nil

	switch {
	case err != nil:
		pick.State = ThreadFinished
		pick.Err = err
	case stop == StopDone:
		pick.State = ThreadFinished
		pick.Result = pick.Thread.Result
	case stop == StopLimit:
		// Quantum expired: stay runnable.
	case stop == StopMigrateLock:
		// Either locally blocked (state already set by the hook) or the
		// chained hook requested a migration.
		if pick.State != ThreadBlocked {
			pick.State = ThreadMigrated
			pick.MigrateReason = stop
		}
	case stop.IsMigrate():
		pick.State = ThreadMigrated
		pick.MigrateReason = stop
	}
	return s.unfinished(), nil
}

func (s *Scheduler) unfinished() bool {
	for _, t := range s.threads {
		if t.State != ThreadFinished {
			return true
		}
	}
	return false
}

// RunAll drives the scheduler until every thread finishes. Migrated threads
// make it stop with an error (the caller should drive offloading itself).
func (s *Scheduler) RunAll() error {
	for {
		more, err := s.Step()
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
		if s.allParked() {
			return fmt.Errorf("vm: scheduler stalled: threads parked for migration")
		}
	}
}

// allParked reports whether no thread can make local progress.
func (s *Scheduler) allParked() bool {
	for _, t := range s.threads {
		if t.State == ThreadRunnable {
			return false
		}
	}
	for _, t := range s.threads {
		if t.State == ThreadMigrated {
			return true
		}
	}
	return false
}

// Detach restores the VM's original monitor hooks.
func (s *Scheduler) Detach() {
	s.VM.Hooks.OnMonitorEnter = s.prevEnter
	s.VM.Hooks.OnMonitorExit = s.prevExit
}

var _ = taint.None // keep the import for doc references
