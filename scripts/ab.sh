#!/usr/bin/env bash
# A/B runs of the repository's benchmark: this checkout (the change) against a
# base ref (the parent), the way CHANGES.md reports a performance claim.
#
#   scripts/ab.sh <base-ref> [-n pairs] [-s first-seed] [workload...]
#
# The base ref is cloned into .bench_build/ab/base; then, per workload, N
# (default 10) interleaved pairs of
#
#   bash benchmark/run.sh --workload W --seed S --seconds 24 --trace 0
#
# are run, one side after the other with the side that goes first alternating
# from pair to pair, both sides of a pair on the same seed (first-seed + pair
# index; pick seeds that were not used while writing the change).  For every
# workload x end-to-end metric it prints
#
#   parent median [q1,q3] -> change median [q1,q3], wins/pairs, delta %,
#   the bound from BENCHMARK.json, and a verdict:
#
#   better        the change wins >= 9/10 of the pairs that are not ties and the
#                 medians differ, in the good direction, by more than the
#                 parent's own inter-quartile range
#   unresolved    either side's inter-quartile range is wider than the bound:
#                 the runs cannot tell
#   WORSE         the change's median is worse than the parent's by more than
#                 the bound
#   within bound  everything else
#
# A run that is not correct, or that failed an op, is reported and makes the
# script exit 1.  bash + awk only; everything it writes (the clone, both build
# caches, the raw result of every run under .bench_build/ab/runs-<start time>/)
# stays below .bench_build/, and nothing under benchmark/ is touched.
set -euo pipefail

usage() { sed -n '2,6p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2; exit 2; }

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pairs=10 seed0=101 base_ref="" workloads=()
while [ $# -gt 0 ]; do
	case "$1" in
	-n) pairs="${2:?-n needs a count}"; shift 2 ;;
	-s) seed0="${2:?-s needs a seed}"; shift 2 ;;
	-h | --help) usage ;;
	-*) echo "ab.sh: unknown flag $1" >&2; usage ;;
	*) if [ -z "$base_ref" ]; then base_ref="$1"; else workloads+=("$1"); fi; shift ;;
	esac
done
[ -n "$base_ref" ] || usage

manifest="$root/BENCHMARK.json"
if [ ${#workloads[@]} -eq 0 ]; then
	# Every workload BENCHMARK.json declares, in its order.
	while IFS= read -r w; do workloads+=("$w"); done < <(awk '
		/"workloads"[ \t]*:/ { inside = 1; next }
		inside && /^[ \t]*\]/ { exit }
		inside && /"name"[ \t]*:/ { gsub(/.*"name"[ \t]*:[ \t]*"|".*/, ""); print }' "$manifest")
fi

ab="$root/.bench_build/ab"
runs="$ab/runs-$(date +%Y%m%dT%H%M%S)"
sha="$(git -C "$root" rev-parse --verify "$base_ref^{commit}")"
mkdir -p "$runs"
# A clone of the same commit left by an earlier invocation is reused, with its
# build cache.
if [ "$(git -C "$ab/base" rev-parse HEAD 2>/dev/null || true)" != "$sha" ]; then
	rm -rf "$ab/base"
	git clone -q --no-checkout "$root" "$ab/base"
	git -C "$ab/base" checkout -q --detach "$sha"
fi
echo "ab: parent $sha ($base_ref) in ${ab#"$root"/}/base, change = working tree of $root"
echo "ab: ${pairs} pairs per workload, seeds ${seed0}..$((seed0 + pairs - 1)), workloads: ${workloads[*]}"

bad=0
# run_side <side> <checkout> <workload> <pair> <seed>: one benchmark run; the
# result object (last line of its output) is kept, the report above it is not.
run_side() {
	local side=$1 dir=$2 w=$3 i=$4 seed=$5 out="$runs/$3.$4.$1.json"
	if ! bash "$dir/benchmark/run.sh" --workload "$w" --seed "$seed" --seconds 24 --trace 0 2>"$out.err" | tail -n 1 >"$out"; then
		echo "ab: $side $w pair $i seed $seed: run exited non-zero (see ${out#"$root"/}.err)" >&2
		bad=1
	fi
	if ! grep -q '"correct":true' "$out" || ! grep -q '"failed":0[,}]' "$out"; then
		echo "ab: $side $w pair $i seed $seed: not correct or failed ops: $(cut -c1-120 "$out")" >&2
		bad=1
	fi
}

for w in "${workloads[@]}"; do
	for ((i = 0; i < pairs; i++)); do
		seed=$((seed0 + i))
		if ((i % 2 == 0)); then
			run_side parent "$ab/base" "$w" "$i" "$seed"
			run_side change "$root" "$w" "$i" "$seed"
		else
			run_side change "$root" "$w" "$i" "$seed"
			run_side parent "$ab/base" "$w" "$i" "$seed"
		fi
		echo "ab: $w pair $((i + 1))/$pairs (seed $seed) done"
	done
done

# The table.  The first file read is BENCHMARK.json (metric order, direction,
# bound); the rest are result objects named <workload>.<pair>.<side>.json.
awk -v pairs="$pairs" '
function quantile(v, n, q,    pos, lo, frac) {	# v sorted ascending, linear interpolation
	if (n == 0) return 0
	pos = (n - 1) * q; lo = int(pos); frac = pos - lo
	return lo + 1 < n ? v[lo + 1] + frac * (v[lo + 2] - v[lo + 1]) : v[n]
}
function sorted(src, n, dst,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
function fmtv(x) { return x >= 100 ? sprintf("%.0f", x) : x >= 10 ? sprintf("%.1f", x) : x >= 1 ? sprintf("%.2f", x) : sprintf("%.3f", x) }
FNR == 1 { file++ }
file == 1 {
	if ($0 ~ /"end_to_end"[ \t]*:/) { inside = 1; next }
	if (inside && $0 ~ /^[ \t]*\]/) inside = 0
	if (!inside) next
	if ($0 ~ /"name"[ \t]*:/) { name = $0; gsub(/.*"name"[ \t]*:[ \t]*"|".*/, "", name); metrics[++nm] = name }
	if ($0 ~ /"better"[ \t]*:/) { b = $0; gsub(/.*"better"[ \t]*:[ \t]*"|".*/, "", b); better[name] = b }
	if ($0 ~ /"bound"[ \t]*:/) { b = $0; gsub(/.*"bound"[ \t]*:[ \t]*|[ \t,]*$/, "", b); bound[name] = b + 0 }
	next
}
{
	n = split(FILENAME, path, "/"); split(path[n], part, ".")	# workload.pair.side.json
	w = part[1]; pair = part[2] + 1; side = part[3]
	if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
	rest = $0
	while (match(rest, /"[a-z0-9_]+":\{"value":[-+0-9.eE]+/)) {
		tok = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
		split(tok, quoted, "\"")	# "name":{"value":1.5 -> quoted[2] is the name
		val = tok; sub(/.*:/, "", val)
		value[w, quoted[2], side, pair] = val + 0
	}
}
END {
	for (wi = 1; wi <= nw; wi++) {
		w = order[wi]
		printf "\n%s — parent median [q1,q3] -> change median [q1,q3], %d pairs\n", w, pairs
		for (mi = 1; mi <= nm; mi++) {
			m = metrics[mi]; np = 0; wins = 0; losses = 0
			for (i = 1; i <= pairs; i++) {
				if (!((w, m, "parent", i) in value) || !((w, m, "change", i) in value)) continue
				np++; p[np] = value[w, m, "parent", i]; c[np] = value[w, m, "change", i]
				d = better[m] == "higher" ? c[np] - p[np] : p[np] - c[np]
				if (d > 0) wins++; else if (d < 0) losses++
			}
			if (np == 0) { printf "  %-20s no complete pair\n", m; continue }
			sorted(p, np, sp); sorted(c, np, sc)
			pm = quantile(sp, np, .5); p1 = quantile(sp, np, .25); p3 = quantile(sp, np, .75)
			cm = quantile(sc, np, .5); c1 = quantile(sc, np, .25); c3 = quantile(sc, np, .75)
			delta = pm != 0 ? (cm - pm) / pm : 0
			worse = better[m] == "higher" ? -delta : delta
			spread = pm != 0 ? ((p3 - p1) > (c3 - c1) ? (p3 - p1) : (c3 - c1)) / pm : 0
			gap = cm - pm; if (gap < 0) gap = -gap
			if (worse < 0 && wins + losses > 0 && wins >= 0.9 * (wins + losses) && gap > p3 - p1) verdict = "better"
			else if (spread > bound[m]) verdict = sprintf("unresolved (spread %.0f %% > bound)", spread * 100)
			else if (worse > bound[m]) verdict = "WORSE"
			else verdict = "within bound"
			printf "  %-20s %8s [%s,%s] -> %8s [%s,%s]  %2d/%d wins  %+6.1f %%  bound %2.0f %%  %s\n", \
				m, fmtv(pm), fmtv(p1), fmtv(p3), fmtv(cm), fmtv(c1), fmtv(c3), wins, np, delta * 100, bound[m] * 100, verdict
		}
	}
}' "$manifest" $(ls "$runs"/*.json | sort)

exit "$bad"
