// Command stmtop is "top" for the STM runtimes: it polls a metrics
// endpoint (served by internal/metrics — e.g. stmbench -metrics-addr, or
// any program embedding metrics.Registry) and renders a live per-runtime
// view of commit/abort rates, access rates, the hottest objects, and
// commit-latency percentiles.
//
//	stmtop -addr localhost:9190               # refresh every second
//	stmtop -addr localhost:9190 -interval 250ms
//	stmtop -addr localhost:9190 -once         # one snapshot, no screen control
//
// Rates are computed from consecutive snapshots; the first frame of a
// polling session shows absolute totals instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/metrics"
)

func main() {
	addr := flag.String("addr", "localhost:9190", "metrics endpoint host:port")
	interval := flag.Duration("interval", time.Second, "poll interval")
	iterations := flag.Int("n", 0, "number of polls (0 = until interrupted)")
	once := flag.Bool("once", false, "fetch a single snapshot, print, exit")
	topN := flag.Int("top", 5, "hotspot objects shown per runtime")
	flag.Parse()

	url := "http://" + *addr + "/metrics"
	if *once {
		cur, err := fetch(url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmtop: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(render(nil, cur, *topN))
		return
	}

	var prev []metrics.RuntimeSnapshot
	for i := 0; *iterations == 0 || i < *iterations; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		cur, err := fetch(url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmtop: %v\n", err)
			os.Exit(1)
		}
		// ANSI home+clear keeps the view in place like top(1).
		fmt.Print("\x1b[H\x1b[2J")
		fmt.Printf("stmtop — %s — %s\n\n", *addr, time.Now().Format("15:04:05"))
		fmt.Print(render(prev, cur, *topN))
		prev = cur
	}
}

func fetch(url string) ([]metrics.RuntimeSnapshot, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var snaps []metrics.RuntimeSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", url, err)
	}
	return snaps, nil
}

// render formats the current snapshots; with a previous poll available the
// counter columns become per-second rates.
func render(prev, cur []metrics.RuntimeSnapshot, topN int) string {
	prevByName := make(map[string]metrics.RuntimeSnapshot, len(prev))
	for _, s := range prev {
		prevByName[s.Name] = s
	}
	var b strings.Builder
	unit := ""
	if prev != nil {
		unit = "/s"
	}
	fmt.Fprintf(&b, "%-18s %-6s %12s %12s %8s %12s %12s\n",
		"RUNTIME", "KIND", "commits"+unit, "aborts"+unit, "abort%", "reads"+unit, "writes"+unit)
	for _, s := range cur {
		commits := counter(s, prevByName, "commits")
		aborts := counter(s, prevByName, "aborts")
		reads := counter(s, prevByName, "txn_reads")
		writes := counter(s, prevByName, "txn_writes")
		abortPct := 0.0
		if commits+aborts > 0 {
			abortPct = 100 * aborts / (commits + aborts)
		}
		fmt.Fprintf(&b, "%-18s %-6s %12s %12s %7.1f%% %12s %12s\n",
			s.Name, s.Kind, big(commits), big(aborts), abortPct, big(reads), big(writes))
		// Validation line: shown once the commit clock has done anything, so
		// walk-only runtimes keep the compact view.
		fast := s.Stats["fastpath_validations"]
		walks := s.Stats["fallback_walks"]
		if fast > 0 {
			hit := 100 * float64(fast) / float64(fast+walks)
			fmt.Fprintf(&b, "  validation: clock fast-path %.1f%% (%s fast, %s walks)\n",
				hit, big(float64(fast)), big(float64(walks)))
		}
		// Multi-version line: shown once the snapshot read path or the
		// version GC has done anything (i.e. for mvstm-backed runtimes).
		snaps := counter(s, prevByName, "snapshot_reads")
		roTxns := s.Stats["read_only_txns"]
		installed := s.Stats["versions_installed"]
		if snaps > 0 || roTxns > 0 || installed > 0 {
			fmt.Fprintf(&b, "  multiversion: snapshot reads%s %s  read-only txns %d (aborted %d)  versions live %d (gc'd %d)  watermark lag %d\n",
				unit, big(snaps), roTxns, s.Stats["read_only_aborts"],
				s.Stats["versions_live"], s.Stats["versions_gcd"], s.Stats["watermark_lag"])
		}
		// Robustness line: shown only once recovery or irrevocability has
		// fired, so quiet runtimes keep the compact classic view.
		steals := counter(s, prevByName, "reaper_steals")
		escal := counter(s, prevByName, "escalations")
		if steals > 0 || escal > 0 || s.Stats["irrevocable_txns"] > 0 {
			fmt.Fprintf(&b, "  recovery: steals%s %s  escalations%s %s  irrevocable %d",
				unit, big(steals), unit, big(escal), s.Stats["irrevocable_txns"])
			if n := s.Stats["irrevocable_txns"]; n > 0 {
				fmt.Fprintf(&b, " (avg hold %s)", ns(s.Stats["irrevocable_ns"]/n))
			}
			b.WriteByte('\n')
		}
		// Durability line: present only for durable.Store-backed runtimes
		// (metrics.Registry.RegisterStore).
		if d := s.Durability; d != nil {
			batch := "-"
			if d.Fsyncs > 0 {
				batch = fmt.Sprintf("%.1f (max %d)", d.GroupCommitMean, d.GroupCommitBatch)
			}
			fmt.Fprintf(&b, "  durability: epoch %d  wal appends %s  fsyncs %s  batch %s  snapshot age %s  replayed %d",
				d.Epoch, big(float64(d.WALAppends)), big(float64(d.Fsyncs)), batch,
				ns(d.SnapshotAgeNs), d.RecoveryReplays)
			b.WriteByte('\n')
		}
		// Causal line: present only when a flight recorder is attached to
		// the runtime's tracer (trace.Tracer sink = causal.Recorder).
		if c := s.Causal; c != nil {
			fmt.Fprintf(&b, "  causal: waits %d  chain %d  wasted %.1f%%  max consec aborts %d",
				c.ActiveWaits, c.LongestChain, c.WastedWorkPct, c.MaxConsecutiveAborts)
			if c.MaxConsecutiveTxn != 0 {
				fmt.Fprintf(&b, " (txn %d)", c.MaxConsecutiveTxn)
			}
			fmt.Fprintf(&b, "  attempts %d  edges %d", c.Attempts, c.Edges)
			if c.Extensions > 0 {
				fmt.Fprintf(&b, "  extensions %d", c.Extensions)
			}
			b.WriteByte('\n')
		}
		if t := s.Trace; t != nil {
			if t.Dropped > 0 {
				fmt.Fprintf(&b, "  trace drops: %s of %s events (per shard: %s)\n",
					big(float64(t.Dropped)), big(float64(t.Events)), shardDrops(t.DroppedByShard))
			}
			cl := t.CommitLatency
			fmt.Fprintf(&b, "  commit latency: p50 %s  p95 %s  p99 %s  (n=%d)",
				ns(cl.P50Ns), ns(cl.P95Ns), ns(cl.P99Ns), cl.Count)
			if t.AbortToRetry.Count > 0 {
				fmt.Fprintf(&b, "   abort→retry p50 %s", ns(t.AbortToRetry.P50Ns))
			}
			if t.QuiesceWait.Count > 0 {
				fmt.Fprintf(&b, "   quiesce p50 %s", ns(t.QuiesceWait.P50Ns))
			}
			if t.IrrevocableHold.Count > 0 {
				fmt.Fprintf(&b, "   irrev hold p50 %s", ns(t.IrrevocableHold.P50Ns))
			}
			b.WriteByte('\n')
			if len(t.Hotspots) > 0 {
				n := topN
				if n > len(t.Hotspots) {
					n = len(t.Hotspots)
				}
				parts := make([]string, 0, n)
				for _, h := range t.Hotspots[:n] {
					parts = append(parts, fmt.Sprintf("#%d (%d aborts, %d conflicts)", h.Obj, h.Aborts, h.Conflicts))
				}
				fmt.Fprintf(&b, "  hot objects: %s\n", strings.Join(parts, ", "))
			}
		}
	}
	return b.String()
}

// shardDrops renders per-shard drop counts compactly ("0/0/12/0/…"),
// eliding trailing all-zero shards.
func shardDrops(byShard []int64) string {
	last := len(byShard)
	for last > 0 && byShard[last-1] == 0 {
		last--
	}
	if last == 0 {
		return "none"
	}
	parts := make([]string, last)
	for i := 0; i < last; i++ {
		parts[i] = fmt.Sprintf("%d", byShard[i])
	}
	return strings.Join(parts, "/")
}

// counter returns the named stat as a rate (per second against the
// previous poll) or, on the first frame, as the absolute total.
func counter(cur metrics.RuntimeSnapshot, prev map[string]metrics.RuntimeSnapshot, key string) float64 {
	v := float64(cur.Stats[key])
	p, ok := prev[cur.Name]
	if !ok {
		return v
	}
	dt := float64(cur.UnixNs-p.UnixNs) / 1e9
	if dt <= 0 {
		return 0
	}
	return (v - float64(p.Stats[key])) / dt
}

// big renders a count or rate compactly (1234567 -> "1.23M").
func big(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// ns renders a nanosecond figure with an adaptive unit.
func ns(v int64) string {
	d := time.Duration(v)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}
