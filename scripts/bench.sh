#!/bin/sh
# Run the repo's core benchmarks with allocation stats and record the
# result as a committed baseline, or compare a fresh run against it.
#
# Usage:
#   scripts/bench.sh [go-bench-regexp] [benchtime]          # record
#   scripts/bench.sh compare [go-bench-regexp] [benchtime]  # diff
#   scripts/bench.sh loadgen [single-rate] [batch-rate] [batch]  # serving
#   scripts/bench.sh recovery [benchtime]                   # durable boot
#   scripts/bench.sh mesh                                   # 1-vs-3 nodes
#   scripts/bench.sh indexsweep [max-entries]               # ANN scaling
#   scripts/bench.sh whatif [benchtime] [count]             # profiler
#
# Record mode defaults to the full suite at -benchtime=1s. Output lands
# in BENCH_core.json at the repo root: a JSON document wrapping the raw
# `go test -bench` text (benchmarks' native format survives untouched
# for benchstat) plus the environment needed to interpret it.
#
# Loadgen mode measures end-to-end serving with cmd/potluck-loadgen:
# an open-loop run at single-rate with single-op messages, then one at
# batch-rate (default 2x) with MultiLookup frames of the given batch
# size, each against a freshly started potluckd. Both reports are
# spliced into BENCH_core.json under a "loadgen" key (run record mode
# first), and the mode exits nonzero unless the batched run sustains
# its offered rate within the SLO — the batching win the protocol is
# supposed to buy.
#
# Mesh mode runs the 3-node cluster experiment (internal/experiments
# "mesh"): capacity-bounded nodes, the same recurring workload against
# one isolated node and against a 3-node rendezvous mesh at K=1 and
# K=2. The hit-rate curve is spliced into BENCH_core.json under a
# "mesh" key (run record mode first), and the mode exits nonzero
# unless both mesh topologies beat the single node — the pooling win
# the cluster subsystem is supposed to buy.
#
# Indexsweep mode runs the table2scale experiment (internal/experiments):
# every index kind measured across entry counts up to max-entries
# (default the full 10^6 sweep; pass 1000 for a CI smoke). The full
# table plus the gate figures are spliced into BENCH_core.json under an
# "indexsweep" key (run record mode first), and the mode exits nonzero
# unless, at the largest scale each kind was measured at, HNSW and IVF
# both probe at least 5x fewer entries than the linear scan while
# keeping recall@1 >= 0.95 — the sub-linear win those kinds are
# supposed to buy (ISSUE 9 / ROADMAP item 3).
#
# Whatif mode measures what attaching the online counterfactual
# profiler costs and whether its answers are right. It runs
# BenchmarkWhatIfOverhead count times (default 5) and gates on the
# median of the "paired" series' overhead-% metric (tapped and
# untapped batches interleaved in-process, immune to machine-speed
# drift): attaching at the default rate must cost <= 5%. It then runs the
# "whatif" experiment (internal/experiments), which replays a trace
# with the profiler attached and re-runs it at each ghost capacity for
# ground truth — the experiment itself exits nonzero if any ghost
# estimate is off by more than 3 hit-rate points or the Che prediction
# diverges beyond tolerance. Both results are spliced into
# BENCH_core.json under a "whatif" key (run record mode first).
#
# Recovery mode times the durable store's boot path (open + replay +
# restore, internal/store BenchmarkRecovery) and splices the measured
# per-boot nanoseconds into BENCH_core.json under a "recovery" key (run
# record mode first). The steady-state write-path overhead of the store
# is covered by the regular record/compare gate via BenchmarkDurablePut.
#
# Compare mode reruns the benchmarks and diffs ns/op per benchmark
# against the committed BENCH_core.json, printing a table and exiting
# nonzero if any benchmark regressed by more than 10%. Run it before
# merging a change that touches the lookup, put, or key-generation
# paths — the telemetry subsystem's <=5% overhead budget (DESIGN.md,
# "Observability") is likewise enforced by comparing the telemetry-
# on/telemetry-off variants of BenchmarkLookupParallel here. Go names
# a benchmark Name-N when it runs at GOMAXPROCS N > 1, so each side's
# "-N" (the baseline's recorded "gomaxprocs", 1 when absent; this run's
# $GOMAXPROCS or nproc) is stripped before names are matched, and the
# gate fails when it matched no baseline benchmark at all. Note the
# committed baseline was recorded on one specific machine: across
# hosts the comparison tracks shape, not absolute truth, so re-record
# (and commit) a baseline from your own machine before relying on the
# 10% gate.
set -eu

cd "$(dirname "$0")/.."

mode=record
if [ "${1:-}" = "compare" ]; then
	mode=compare
	shift
elif [ "${1:-}" = "loadgen" ]; then
	mode=loadgen
	shift
elif [ "${1:-}" = "recovery" ]; then
	mode=recovery
	shift
elif [ "${1:-}" = "mesh" ]; then
	mode=mesh
	shift
elif [ "${1:-}" = "indexsweep" ]; then
	mode=indexsweep
	shift
elif [ "${1:-}" = "whatif" ]; then
	mode=whatif
	shift
fi

if [ "$mode" = "whatif" ]; then
	benchtime="${1:-1s}"
	count="${2:-5}"
	out="BENCH_core.json"
	tmp="$(mktemp)"
	exptmp="$(mktemp)"
	trap 'rm -f "$tmp" "$exptmp" "$tmp.spliced"' EXIT

	# The gate reads the "paired" series: it interleaves tapped and
	# untapped batches inside one process, so machine-speed drift on
	# shared hosts cancels at batch granularity (whole-series medians
	# of the standalone modes are recorded for reference but swing by
	# ±10% run to run on busy hosts). No -cpu override: the benchmark
	# runs at the machine's native GOMAXPROCS (oversubscribing workers
	# past the core count drowns the few-percent signal in scheduler
	# churn).
	echo "running: go test -run ^\$ -bench BenchmarkWhatIfOverhead -benchtime $benchtime -count $count ." >&2
	go test -run '^$' -bench BenchmarkWhatIfOverhead -benchtime "$benchtime" -count "$count" . | tee "$tmp" >&2

	eval "$(awk '
		function median(a, n,   i, j, t) {
			for (i = 2; i <= n; i++) { t = a[i]; j = i - 1
				while (j >= 1 && a[j] > t) { a[j+1] = a[j]; j-- }
				a[j+1] = t }
			return (n % 2) ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
		}
		$4 == "ns/op" && $1 ~ /^BenchmarkWhatIfOverhead\/detached(-[0-9]+)?$/ { det[++nd] = $3 }
		$4 == "ns/op" && $1 ~ /^BenchmarkWhatIfOverhead\/attached(-[0-9]+)?$/ { att[++na] = $3 }
		$4 == "ns/op" && $1 ~ /^BenchmarkWhatIfOverhead\/attached-full(-[0-9]+)?$/ { full[++nf] = $3 }
		$1 ~ /^BenchmarkWhatIfOverhead\/paired(-[0-9]+)?$/ {
			for (i = 3; i < NF; i++) {
				if ($(i+1) == "overhead-%") ovh[++no] = $i
			}
		}
		END {
			printf "det_ns=%.0f att_ns=%.0f full_ns=%.0f overhead_med=%.1f nov=%d\n", \
				median(det, nd), median(att, na), median(full, nf), median(ovh, no), no
		}
	' "$tmp")"
	if [ "${det_ns:-0}" = 0 ] || [ "${att_ns:-0}" = 0 ] || [ "${nov:-0}" = 0 ]; then
		echo "bench.sh: BenchmarkWhatIfOverhead produced no ns/op or overhead-% lines" >&2
		exit 1
	fi
	overhead="$overhead_med"

	echo "running: go run ./cmd/potluck-experiments whatif" >&2
	if ! go run ./cmd/potluck-experiments whatif | tee "$exptmp" >&2; then
		echo "bench.sh: whatif experiment failed its accuracy gates" >&2
		exit 1
	fi
	worst_pts=$(awk '/worst ghost error/ { print $(NF-1) }' "$exptmp")
	divergence=$(awk '/Che prediction/ { v = $8; gsub(",", "", v); print v }' "$exptmp")
	if [ -z "$worst_pts" ] || [ -z "$divergence" ]; then
		echo "bench.sh: whatif experiment output missing gate figures" >&2
		exit 1
	fi

	if [ -f "$out" ]; then
		# Splice a "whatif" object into the baseline, same discipline as
		# the mesh/recovery keys: replace in place, else insert after the
		# bench "output" array (inert to compare mode).
		if grep -q '^  "whatif": {$' "$out"; then
			replace=1
		else
			replace=0
		fi
		awk -v replace="$replace" -v benchtime="$benchtime" -v count="$count" \
			-v det="$det_ns" -v att="$att_ns" -v full="$full_ns" -v ovh="$overhead" \
			-v pts="$worst_pts" -v div="$divergence" \
			-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
			function body() {
				print "  \"whatif\": {"
				printf "    \"date\": \"%s\",\n", date
				printf "    \"benchtime\": \"%s\",\n", benchtime
				printf "    \"count\": %s,\n", count
				printf "    \"detached_ns_op\": %s,\n", det
				printf "    \"attached_ns_op\": %s,\n", att
				printf "    \"attached_full_rate_ns_op\": %s,\n", full
				printf "    \"attached_overhead_pct\": %s,\n", ovh
				printf "    \"worst_ghost_error_pts\": %s,\n", pts
				printf "    \"che_divergence\": %s\n", div
			}
			replace && /^  "whatif": \{$/ { body(); skip = 1; next }
			skip && /^  \},?$/ { print; skip = 0; next }
			skip { next }
			!replace && !done && /^  \],?$/ {
				comma = ($0 ~ /,$/) ? "," : ""
				print "  ],"
				body()
				print "  }" comma
				done = 1
				next
			}
			{ print }
		' "$out" > "$tmp.spliced" && mv "$tmp.spliced" "$out"
		echo "updated $out (whatif section: ${overhead}% attached overhead, ${worst_pts} pts worst ghost error)" >&2
	else
		echo "bench.sh: no $out baseline; whatif numbers not recorded (run scripts/bench.sh first)" >&2
	fi

	# The gate: tapping at the default sample rate must cost <= 5%,
	# judged on the median of the paired series' overhead-% metric.
	awk -v ovh="$overhead" -v n="$nov" -v d="$det_ns" -v a="$att_ns" 'BEGIN {
		if (ovh + 0 <= 5.0) {
			printf "bench.sh: whatif attached overhead %s%% within the 5%% budget (median of %d paired runs; standalone medians %s / %s ns/op)\n", ovh, n, d, a
			exit 0
		}
		printf "bench.sh: whatif attached overhead %s%% exceeds the 5%% budget (median of %d paired runs; standalone medians %s / %s ns/op)\n", ovh, n, d, a
		exit 1
	}'
	exit $?
fi

if [ "$mode" = "indexsweep" ]; then
	max="${1:-1000000}"
	out="BENCH_core.json"
	tmp="$(mktemp)"
	trap 'rm -f "$tmp" "$tmp.spliced"' EXIT

	echo "running: POTLUCK_SWEEP_MAX=$max go run ./cmd/potluck-experiments table2scale" >&2
	POTLUCK_SWEEP_MAX="$max" go run ./cmd/potluck-experiments table2scale | tee "$tmp" >&2

	# Per kind, keep the largest scale it was measured at (rows are
	# "entries kind us/query probes recall keyB build"; skipped scales
	# hold "-"). The linear row at each scale is the probe yardstick.
	eval "$(awk '
		$1 ~ /^[0-9]+$/ && $3 != "-" {
			n = $1 + 0
			if ($2 == "linear") lin[n] = $4
			if (n > top[$2]) { top[$2] = n; probes[$2] = $4; recall[$2] = $5 }
		}
		END {
			printf "hnsw_n=%d hnsw_probes=%s hnsw_recall=%s hnsw_lin=%s\n", \
				top["hnsw"], probes["hnsw"], recall["hnsw"], lin[top["hnsw"]]
			printf "ivf_n=%d ivf_probes=%s ivf_recall=%s ivf_lin=%s\n", \
				top["ivf"], probes["ivf"], recall["ivf"], lin[top["ivf"]]
		}
	' "$tmp")"
	if [ "${hnsw_n:-0}" = 0 ] || [ "${ivf_n:-0}" = 0 ]; then
		echo "bench.sh: table2scale produced no hnsw/ivf rows" >&2
		exit 1
	fi

	if [ -f "$out" ]; then
		# Splice an "indexsweep" object into the baseline, same
		# discipline as the mesh/recovery keys: replace in place, else
		# insert after the bench "output" array (inert to compare mode).
		if grep -q '^  "indexsweep": {$' "$out"; then
			replace=1
		else
			replace=0
		fi
		awk -v replace="$replace" -v max="$max" \
			-v hn="$hnsw_n" -v hp="$hnsw_probes" -v hr="$hnsw_recall" -v hl="$hnsw_lin" \
			-v in_="$ivf_n" -v ip="$ivf_probes" -v ir="$ivf_recall" -v il="$ivf_lin" \
			-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
			function body() {
				print "  \"indexsweep\": {"
				printf "    \"date\": \"%s\",\n", date
				printf "    \"max_entries\": %s,\n", max
				printf "    \"hnsw\": {\"entries\": %s, \"probes\": %s, \"recall\": %s, \"linear_probes\": %s},\n", hn, hp, hr, hl
				printf "    \"ivf\": {\"entries\": %s, \"probes\": %s, \"recall\": %s, \"linear_probes\": %s}\n", in_, ip, ir, il
			}
			replace && /^  "indexsweep": \{$/ { body(); skip = 1; next }
			skip && /^  \},?$/ { print; skip = 0; next }
			skip { next }
			!replace && !done && /^  \],?$/ {
				comma = ($0 ~ /,$/) ? "," : ""
				print "  ],"
				body()
				print "  }" comma
				done = 1
				next
			}
			{ print }
		' "$out" > "$tmp.spliced" && mv "$tmp.spliced" "$out"
		echo "updated $out (indexsweep section: ivf $ivf_probes vs linear $ivf_lin probes at $ivf_n)" >&2
	else
		echo "bench.sh: no $out baseline; sweep not recorded (run scripts/bench.sh first)" >&2
	fi

	# The gate: both sub-linear kinds must probe >=5x less than the
	# linear scan at their largest measured scale, at recall >= 0.95.
	# The probe ratio only has to hold from 10^5 up (small caches are
	# where approximate search hasn't paid for itself yet — the CI smoke
	# at 10^3 checks recall and that the sweep runs, nothing more).
	awk -v hn="$hnsw_n" -v hp="$hnsw_probes" -v hr="$hnsw_recall" -v hl="$hnsw_lin" \
		-v in_="$ivf_n" -v ip="$ivf_probes" -v ir="$ivf_recall" -v il="$ivf_lin" 'BEGIN {
		ok = 1
		if (hn + 0 >= 100000 && hp * 5 > hl) { printf "bench.sh: hnsw probes %s not 5x under linear %s at %s entries\n", hp, hl, hn; ok = 0 }
		if (hr + 0 < 0.95) { printf "bench.sh: hnsw recall %s below 0.95\n", hr; ok = 0 }
		if (in_ + 0 >= 100000 && ip * 5 > il) { printf "bench.sh: ivf probes %s not 5x under linear %s at %s entries\n", ip, il, in_; ok = 0 }
		if (ir + 0 < 0.95) { printf "bench.sh: ivf recall %s below 0.95\n", ir; ok = 0 }
		if (hn + 0 < 100000 && in_ + 0 < 100000) printf "bench.sh: sweep below 10^5 entries; probe-ratio gate skipped\n"
		if (ok) {
			printf "bench.sh: sub-linear gate holds (hnsw %s, ivf %s vs linear %s/%s probes; recall %s/%s)\n", hp, ip, hl, il, hr, ir
			exit 0
		}
		exit 1
	}'
	exit $?
fi

if [ "$mode" = "mesh" ]; then
	out="BENCH_core.json"
	tmp="$(mktemp)"
	trap 'rm -f "$tmp" "$tmp.spliced"' EXIT

	echo "running: go run ./cmd/potluck-experiments mesh" >&2
	go run ./cmd/potluck-experiments mesh | tee "$tmp" >&2

	# Hit rates sit third-from-last on each topology row (rate,
	# predicted, peer reuses).
	single=$(awk '/^1 node/ { print $(NF-2) }' "$tmp")
	k1=$(awk '/^3-node mesh, K=1/ { print $(NF-2) }' "$tmp")
	k2=$(awk '/^3-node mesh, K=2/ { print $(NF-2) }' "$tmp")
	if [ -z "$single" ] || [ -z "$k1" ] || [ -z "$k2" ]; then
		echo "bench.sh: mesh experiment produced no hit-rate rows" >&2
		exit 1
	fi

	if [ -f "$out" ]; then
		# Splice a "mesh" object into the baseline, same discipline as
		# the recovery key: replace in place, else insert after the
		# bench "output" array (inert to compare mode's line recovery).
		if grep -q '^  "mesh": {$' "$out"; then
			replace=1
		else
			replace=0
		fi
		awk -v single="$single" -v k1="$k1" -v k2="$k2" -v replace="$replace" \
			-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
			function body() {
				print "  \"mesh\": {"
				printf "    \"date\": \"%s\",\n", date
				printf "    \"hit_rate_1_node\": %s,\n", single
				printf "    \"hit_rate_3_node_k1\": %s,\n", k1
				printf "    \"hit_rate_3_node_k2\": %s\n", k2
			}
			replace && /^  "mesh": \{$/ { body(); skip = 1; next }
			skip && /^  \},?$/ { print; skip = 0; next }
			skip { next }
			!replace && !done && /^  \],?$/ {
				comma = ($0 ~ /,$/) ? "," : ""
				print "  ],"
				body()
				print "  }" comma
				done = 1
				next
			}
			{ print }
		' "$out" > "$tmp.spliced" && mv "$tmp.spliced" "$out"
		echo "updated $out (mesh section: $single -> $k1 (K=1) / $k2 (K=2))" >&2
	else
		echo "bench.sh: no $out baseline; mesh curve not recorded (run scripts/bench.sh first)" >&2
	fi

	# The gate: pooled capacity must strictly beat the isolated node.
	awk -v single="$single" -v k1="$k1" -v k2="$k2" 'BEGIN {
		if (k1 + 0 > single + 0 && k2 + 0 > single + 0) {
			printf "bench.sh: mesh lifts hit rate %s -> %s (K=1), %s (K=2)\n", single, k1, k2
			exit 0
		}
		printf "bench.sh: mesh hit rate not above single node (%s vs %s/%s)\n", single, k1, k2
		exit 1
	}'
	exit $?
fi

if [ "$mode" = "recovery" ]; then
	benchtime="${1:-10x}"
	out="BENCH_core.json"
	tmp="$(mktemp)"
	trap 'rm -f "$tmp"' EXIT

	echo "running: go test -run ^\$ -bench BenchmarkRecovery -benchtime $benchtime ./internal/store" >&2
	go test -run '^$' -bench BenchmarkRecovery -benchtime "$benchtime" ./internal/store | tee "$tmp" >&2

	# No "-N" suffix when GOMAXPROCS is 1, hence the (-|$).
	ns1k=$(awk '$1 ~ /^BenchmarkRecovery\/entries-1000(-[0-9]+)?$/ && $4 == "ns/op" { print $3 }' "$tmp")
	ns10k=$(awk '$1 ~ /^BenchmarkRecovery\/entries-10000(-[0-9]+)?$/ && $4 == "ns/op" { print $3 }' "$tmp")
	if [ -z "$ns10k" ]; then
		echo "bench.sh: BenchmarkRecovery produced no ns/op line" >&2
		exit 1
	fi

	if [ -f "$out" ]; then
		# Splice a "recovery" object into the baseline: replace an
		# existing one in place (keeping its trailing comma, so the keys
		# after it stay attached), else insert right after the bench
		# "output" array. Compare mode's line recovery only reads the
		# array, so the extra key is inert.
		if grep -q '^  "recovery": {$' "$out"; then
			replace=1
		else
			replace=0
		fi
		awk -v ns1k="${ns1k:-0}" -v ns10k="$ns10k" -v replace="$replace" \
			-v benchtime="$benchtime" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
			function body() {
				print "  \"recovery\": {"
				printf "    \"date\": \"%s\",\n", date
				printf "    \"benchtime\": \"%s\",\n", benchtime
				printf "    \"boot_ns_1000_entries\": %s,\n", ns1k
				printf "    \"boot_ns_10000_entries\": %s\n", ns10k
			}
			replace && /^  "recovery": \{$/ { body(); skip = 1; next }
			skip && /^  \},?$/ { print; skip = 0; next }
			skip { next }
			!replace && !done && /^  \],?$/ {
				comma = ($0 ~ /,$/) ? "," : ""
				print "  ],"
				body()
				print "  }" comma
				done = 1
				next
			}
			{ print }
		' "$out" > "$tmp.spliced" && mv "$tmp.spliced" "$out"
		echo "updated $out (recovery section: ${ns10k} ns/boot at 10k entries)" >&2
	else
		echo "bench.sh: no $out baseline; recovery numbers not recorded (run scripts/bench.sh first)" >&2
	fi
	exit 0
fi

if [ "$mode" = "loadgen" ]; then
	single_rate="${1:-14000}"
	batch_rate="${2:-28000}"
	batch="${3:-16}"
	out="BENCH_core.json"
	work="$(mktemp -d)"
	trap 'rm -rf "$work"; kill $daemon 2>/dev/null || true' EXIT
	daemon=

	go build -o "$work/potluckd" ./cmd/potluckd
	go build -o "$work/loadgen" ./cmd/potluck-loadgen

	# One fresh daemon per run: entries a run seeds or puts must not
	# inflate lookup costs for the next one.
	serve_one() { # rate batch report
		rm -f "$work/p.sock"
		"$work/potluckd" -addr "$work/p.sock" >"$work/potluckd.log" 2>&1 &
		daemon=$!
		i=0
		while [ ! -S "$work/p.sock" ] && [ $i -lt 50 ]; do sleep 0.1; i=$((i + 1)); done
		echo "loadgen: batch=$2 offered=$1 ops/s" >&2
		"$work/loadgen" -addr "$work/p.sock" -rate "$1" -batch "$2" \
			-duration 5s -warmup 1s -keys 8 -put-ratio 0 -slo 150ms >"$3"
		status=$?
		kill "$daemon" 2>/dev/null || true
		wait "$daemon" 2>/dev/null || true
		daemon=
		grep -E '"throughput_ops_per_sec"|"p99"|"slo_met"' "$3" >&2
		return $status
	}

	serve_one "$single_rate" 1 "$work/single.json" || true
	if serve_one "$batch_rate" "$batch" "$work/batch.json"; then
		batch_ok=0
	else
		batch_ok=1
	fi

	if [ -f "$out" ]; then
		# Splice the two reports into the committed baseline under a
		# "loadgen" key (replacing any previous one), after the bench
		# "output" array so compare mode's line recovery is untouched.
		awk -v single="$work/single.json" -v batchf="$work/batch.json" '
			/^  "loadgen": \{$/ { skip = 1; next }
			skip && /^  \},?$/ { skip = 0; next }
			skip { next }
			!done && /^  \],?$/ {
				# Carry the comma: keys spliced by the other modes may
				# already follow the output array.
				comma = ($0 ~ /,$/) ? "," : ""
				print "  ],"
				print "  \"loadgen\": {"
				print "    \"single\":"
				while ((getline line < single) > 0) print "    " line
				print "    ,"
				print "    \"batch\":"
				while ((getline line < batchf) > 0) print "    " line
				print "  }" comma
				done = 1
				next
			}
			{ print }
		' "$out" > "$work/spliced" && mv "$work/spliced" "$out"
		echo "updated $out (loadgen section)" >&2
	else
		echo "bench.sh: no $out baseline; loadgen reports not recorded (run scripts/bench.sh first)" >&2
	fi
	if [ "$batch_ok" -ne 0 ]; then
		echo "bench.sh: batched run missed its rate or SLO" >&2
		exit 1
	fi
	exit 0
fi

pattern="${1:-.}"
benchtime="${2:-1s}"
out="BENCH_core.json"
tmp="$(mktemp)"
base="$(mktemp)"
trap 'rm -f "$tmp" "$base"' EXIT

echo "running: go test -run ^\$ -bench $pattern -benchtime $benchtime -benchmem ." >&2
go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem . | tee "$tmp" >&2

tab="$(printf '\t')"

if [ "$mode" = "compare" ]; then
	if [ ! -f "$out" ]; then
		echo "bench.sh: no $out baseline to compare against (run scripts/bench.sh first)" >&2
		exit 2
	fi
	# Recover the raw bench text from the JSON wrapper: take the quoted
	# array lines and undo the tab/quote/backslash escapes.
	sed -n 's/^    "\(.*\)",\{0,1\}$/\1/p' "$out" |
		sed "s/\\\\t/$tab/g; s/\\\\\"/\"/g; s/\\\\\\\\/\\\\/g" > "$base"
	echo >&2
	echo "comparing ns/op against $out ($(sed -n 's/^  "date": "\(.*\)",$/\1/p' "$out")):" >&2
	base_procs=$(sed -n 's/^  "gomaxprocs": "\(.*\)",$/\1/p' "$out")
	awk -v thresh=10 -v bprocs="${base_procs:-1}" -v cprocs="${GOMAXPROCS:-$(nproc)}" '
		# norm strips the -N Go appends to a name at GOMAXPROCS N > 1;
		# size suffixes such as hnsw-1000 are left alone.
		function norm(name, procs) {
			if (procs > 1) sub("-" procs "$", "", name)
			return name
		}
		FNR == NR {
			if ($1 ~ /^Benchmark/ && $4 == "ns/op") base[norm($1, bprocs)] = $3
			next
		}
		$1 ~ /^Benchmark/ && $4 == "ns/op" {
			name = norm($1, cprocs)
			if (!(name in base)) {
				printf "  new        %-44s %14.0f ns/op\n", name, $3
				next
			}
			b = base[name]; n = $3; seen[name] = 1; compared++
			pct = (b > 0) ? (n - b) / b * 100 : 0
			mark = "ok        "
			if (pct > thresh) { mark = "REGRESSED "; bad++ }
			else if (pct < -thresh) mark = "improved  "
			printf "  %s %-44s %14.0f -> %12.0f ns/op  (%+6.1f%%)\n", mark, name, b, n, pct
		}
		END {
			for (name in base) if (!(name in seen) && name !~ /^#/) missing++
			if (missing) printf "  (%d baseline benchmark(s) not exercised by pattern)\n", missing
			if (!compared) {
				print "bench.sh: no baseline benchmark was compared"
				exit 1
			}
			if (bad) {
				printf "bench.sh: %d benchmark(s) regressed by more than %d%%\n", bad, thresh
				exit 1
			}
			print "bench.sh: no regressions beyond " thresh "%"
		}
	' "$base" "$tmp"
	exit $?
fi

# Spliced sections (whatif/loadgen/mesh/indexsweep/recovery) are
# produced by their own — expensive — modes; carry them across a
# re-record so refreshing the bench baseline does not destroy them.
# They sit between the "output" array's closing "  ]," and the final
# "}" (two-space indent is unique to top level).
splices=""
if [ -f "$out" ]; then
	splices=$(awk '/^  \],?$/ { seen = 1; next } seen { print }' "$out" | sed '$d')
fi

# Wrap the raw text in JSON. Go bench output needs backslash, quote,
# and tab escapes (columns are tab-separated); decoding the lines and
# joining with newlines restores benchstat-ready text exactly.
{
	printf '{\n'
	printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go env GOVERSION)"
	printf '  "goos": "%s",\n' "$(go env GOOS)"
	printf '  "goarch": "%s",\n' "$(go env GOARCH)"
	printf '  "gomaxprocs": "%s",\n' "${GOMAXPROCS:-$(nproc)}"
	printf '  "benchtime": "%s",\n' "$benchtime"
	printf '  "pattern": "%s",\n' "$pattern"
	printf '  "output": ['
	first=1
	while IFS= read -r line; do
		esc=$(printf '%s' "$line" | sed "s/\\\\/\\\\\\\\/g; s/\"/\\\\\"/g; s/$tab/\\\\t/g")
		if [ "$first" = 1 ]; then first=0; else printf ','; fi
		printf '\n    "%s"' "$esc"
	done < "$tmp"
	if [ -n "$splices" ]; then
		printf '\n  ],\n'
		printf '%s\n' "$splices"
	else
		printf '\n  ]\n'
	fi
	printf '}\n'
} > "$out"

echo "wrote $out" >&2
