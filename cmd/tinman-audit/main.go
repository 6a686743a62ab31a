// Command tinman-audit inspects a trusted-node audit log: filtering,
// summarizing, and anomaly scanning — the "reported to the user" side of
// §3.4. It reads the log from a tinman-node store directory (-store) or
// from JSON-lines files, the format its own -json output writes.
//
// Usage:
//
//	tinman-audit -store /var/lib/tinman         # offline store query
//	tinman-audit -store /var/lib/tinman -json > audit.jsonl
//	tinman-audit audit.jsonl                    # list everything
//	tinman-audit -cor bank-pw audit.jsonl       # one cor's history
//	tinman-audit -device nexus-1 audit.jsonl    # one device's history
//	tinman-audit -denied audit.jsonl            # denials only
//	tinman-audit -summary audit.jsonl           # per-cor/per-device totals
//	tinman-audit -since 2015-04-01T00:00:00Z -until 2015-04-02T00:00:00Z audit.jsonl
//	tinman-audit -json -denied audit.jsonl      # machine-readable output
//	tinman-audit -merge node-a.jsonl node-b.jsonl node-c.jsonl
//
// -store opens a tinman-node crash-safe store directory read-only and
// queries the audit log recovered from its snapshot + WAL — works while
// the node is down (or crashed mid-write; recovery tolerates a torn tail)
// and needs no vault passphrase, since only sealed vault records require
// one. All filter flags compose with -store.
//
// -since/-until accept RFC 3339 timestamps or bare dates (2015-04-01,
// midnight UTC) and select the window [since, until). -json re-emits the
// matching entries as JSON lines, so output pipes back into tinman-audit.
//
// -merge interleaves several nodes' logs — the -json exports of each fleet
// member's store — into one stream. Each device's entries are ordered by the
// per-device sequence that travels with its shard (so a device's history
// reads in true order even when it moved between nodes whose clocks and
// global sequences disagree), and sequence gaps or duplicates are reported
// per device on stderr. All other flags compose with -merge.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"tinman/internal/audit"
	"tinman/internal/store"
)

func main() {
	var (
		corID    = flag.String("cor", "", "filter by cor ID")
		device   = flag.String("device", "", "filter by device ID")
		denied   = flag.Bool("denied", false, "show denials only")
		summary  = flag.Bool("summary", false, "print per-cor and per-device totals")
		since    = flag.String("since", "", "only entries at or after this time (RFC 3339 or YYYY-MM-DD)")
		until    = flag.String("until", "", "only entries before this time (RFC 3339 or YYYY-MM-DD)")
		jsonMode = flag.Bool("json", false, "emit matching entries as JSON lines (the format tinman-audit reads back)")
		merge    = flag.Bool("merge", false, "interleave several nodes' logs into one per-device-ordered stream")
		storeDir = flag.String("store", "", "read the audit log from a tinman-node crash-safe store directory (offline, read-only)")
	)
	flag.Parse()
	switch {
	case *storeDir != "":
		if flag.NArg() != 0 || *merge {
			fmt.Fprintln(os.Stderr, "usage: tinman-audit -store <dir> [filter flags]")
			os.Exit(2)
		}
	case flag.NArg() < 1, !*merge && flag.NArg() != 1:
		fmt.Fprintln(os.Stderr, "usage: tinman-audit [flags] audit.jsonl")
		fmt.Fprintln(os.Stderr, "       tinman-audit -merge [flags] node-a.jsonl node-b.jsonl ...")
		fmt.Fprintln(os.Stderr, "       tinman-audit -store <dir> [filter flags]")
		os.Exit(2)
	}

	var logs []*audit.Log
	if *storeDir != "" {
		st, err := store.Open(store.Options{Dir: *storeDir, ReadOnly: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tinman-audit: opening store: %v\n", err)
			os.Exit(1)
		}
		l := audit.NewLog(nil)
		l.Restore(st.State().Audit)
		logs = []*audit.Log{l}
	} else {
		logs = make([]*audit.Log, flag.NArg())
		for i, path := range flag.Args() {
			logs[i] = audit.NewLog(nil)
			if err := logs[i].LoadFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "tinman-audit: %v\n", err)
				os.Exit(1)
			}
		}
	}
	log := logs[0]

	q := audit.Query{CorID: *corID, DeviceID: *device}
	if *denied {
		d := audit.OutcomeDenied
		q.Outcome = &d
	}
	var err error
	if q.Since, err = parseTime(*since); err != nil {
		fmt.Fprintf(os.Stderr, "tinman-audit: -since: %v\n", err)
		os.Exit(2)
	}
	if q.Until, err = parseTime(*until); err != nil {
		fmt.Fprintf(os.Stderr, "tinman-audit: -until: %v\n", err)
		os.Exit(2)
	}
	var entries []audit.Entry
	var gaps []string
	if *merge {
		per := make([][]audit.Entry, len(logs))
		for i, l := range logs {
			per[i] = l.Find(q)
		}
		entries, gaps = mergeStreams(per)
	} else {
		entries = log.Find(q)
	}

	if *summary {
		printSummary(entries)
		if *merge {
			reportGaps(gaps)
		}
		return
	}
	if *jsonMode {
		for _, e := range entries {
			line, err := e.WireJSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "tinman-audit: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(string(line))
		}
		if *merge {
			reportGaps(gaps)
		}
		return
	}
	for _, e := range entries {
		fmt.Println(e.String())
	}
	fmt.Fprintf(os.Stderr, "%d entries", len(entries))
	if *merge {
		fmt.Fprintf(os.Stderr, " from %d logs\n", len(logs))
		reportGaps(gaps)
		return
	}
	if an := log.Anomalies(); len(an) > 0 {
		fmt.Fprintf(os.Stderr, ", %d anomalies:\n", len(an))
		for _, a := range an {
			fmt.Fprintln(os.Stderr, "  "+a.String())
		}
	} else {
		fmt.Fprintln(os.Stderr, ", no anomalies")
	}
}

// mergeStreams interleaves several logs' entries into one stream. Entries
// are grouped per device and ordered by DeviceSeq — the counter that
// travels with the device's shard across nodes — falling back to wall time
// for device-less or pre-sharding (DeviceSeq 0) entries. Streams from
// different devices interleave by time without ever reordering within a
// device. The second return value lists per-device sequence problems:
// missing ranges (an entry lost, or a log file not given) and duplicates
// (the at-most-once guarantee violated somewhere).
func mergeStreams(per [][]audit.Entry) (merged []audit.Entry, gaps []string) {
	queues := map[string][]audit.Entry{}
	total := 0
	for _, entries := range per {
		total += len(entries)
		for _, e := range entries {
			queues[e.DeviceID] = append(queues[e.DeviceID], e)
		}
	}
	for dev, q := range queues {
		sort.SliceStable(q, func(i, j int) bool {
			if q[i].DeviceSeq != q[j].DeviceSeq {
				// Zero (unsequenced) sorts by the time fallback below only
				// against other zeros; against sequenced entries it leads,
				// which keeps pre-sharding history first.
				return q[i].DeviceSeq < q[j].DeviceSeq
			}
			return q[i].Time.Before(q[j].Time)
		})
		gaps = append(gaps, scanSeq(dev, q)...)
	}
	sort.Strings(gaps)

	// K-way merge: repeatedly emit the queue head with the earliest
	// timestamp. Per-device order is already fixed by the sort above; this
	// only decides how the devices interleave.
	devs := make([]string, 0, len(queues))
	for dev := range queues {
		devs = append(devs, dev)
	}
	sort.Strings(devs)
	merged = make([]audit.Entry, 0, total)
	for len(merged) < total {
		best := ""
		found := false
		for _, dev := range devs {
			q := queues[dev]
			if len(q) == 0 {
				continue
			}
			if !found || q[0].Time.Before(queues[best][0].Time) {
				best, found = dev, true
			}
		}
		merged = append(merged, queues[best][0])
		queues[best] = queues[best][1:]
	}
	return merged, gaps
}

// scanSeq walks one device's DeviceSeq-ordered entries and describes every
// missing range and duplicate. Unsequenced entries (DeviceSeq 0) are
// skipped — they carry no ordering claim to violate.
func scanSeq(dev string, q []audit.Entry) (gaps []string) {
	if dev == "" {
		return nil
	}
	prev := uint64(0)
	for _, e := range q {
		if e.DeviceSeq == 0 {
			continue
		}
		switch {
		case prev == 0 && e.DeviceSeq > 1:
			gaps = append(gaps, fmt.Sprintf("device %s: history starts at seq %d (1-%d missing)", dev, e.DeviceSeq, e.DeviceSeq-1))
		case prev != 0 && e.DeviceSeq == prev:
			gaps = append(gaps, fmt.Sprintf("device %s: duplicate seq %d", dev, e.DeviceSeq))
		case prev != 0 && e.DeviceSeq > prev+1:
			gaps = append(gaps, fmt.Sprintf("device %s: gap after seq %d (%d-%d missing)", dev, prev, prev+1, e.DeviceSeq-1))
		}
		prev = e.DeviceSeq
	}
	return gaps
}

func reportGaps(gaps []string) {
	if len(gaps) == 0 {
		fmt.Fprintln(os.Stderr, "per-device sequences: gap-free")
		return
	}
	fmt.Fprintf(os.Stderr, "%d sequence problems:\n", len(gaps))
	for _, g := range gaps {
		fmt.Fprintln(os.Stderr, "  "+g)
	}
}

// parseTime accepts RFC 3339 or a bare date (midnight UTC); "" is the zero
// time (no bound).
func parseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	if t, err := time.Parse("2006-01-02", s); err == nil {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("cannot parse %q (want RFC 3339 or YYYY-MM-DD)", s)
}

// printSummary aggregates outcomes per cor and per device.
func printSummary(entries []audit.Entry) {
	type tally struct{ allowed, denied int }
	perCor := map[string]*tally{}
	perDev := map[string]*tally{}
	bump := func(m map[string]*tally, k string, e audit.Entry) {
		if k == "" {
			k = "(none)"
		}
		t := m[k]
		if t == nil {
			t = &tally{}
			m[k] = t
		}
		if e.Outcome == audit.OutcomeAllowed {
			t.allowed++
		} else {
			t.denied++
		}
	}
	for _, e := range entries {
		bump(perCor, e.CorID, e)
		bump(perDev, e.DeviceID, e)
	}
	printTally := func(title string, m map[string]*tally) {
		fmt.Printf("%s\n", title)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-32s allowed %5d  denied %5d\n", k, m[k].allowed, m[k].denied)
		}
	}
	printTally("by cor:", perCor)
	printTally("by device:", perDev)
}
