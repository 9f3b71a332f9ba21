# Convenience entry points; `make check` is the tier-1 gate.

.PHONY: all build test bench-smoke hub-farm-smoke obs-smoke fuzz-smoke timeline-smoke perfbench-smoke check clean

all: build

build:
	dune build

test: build
	dune runtest

# The smoke benches double as end-to-end checks: `netsim smoke` fails
# hard if the compiled event-driven engine diverges bit-for-bit from
# the interpreter on a small manycore (FFs, mems, outputs, injection,
# forced nets); `netsim-batch smoke` fails hard if any lane of the
# 63-wide bit-parallel kernel diverges from the scalar kernel on
# de-phased stimulus; `readback smoke` fails hard if the indexed engine
# and the association-list baseline disagree on a register; `hub smoke`
# fails hard if the coalesced multi-session sweep ever diverges
# bit-for-bit from the serialized single-session path; `vti smoke`
# fails hard if the incremental compile engine ever produces different
# bits (netlist, placement, frames, bitstream, timing, modeled cost)
# from the monolithic baseline flow across an initial compile plus a
# recompile chain; `fuzz smoke` runs a bounded differential fuzzing
# campaign (clean operators must find nothing, an injected broken
# operator must be found AND minimized).  All records land in
# artifacts/BENCH_*.json.
bench-smoke:
	dune exec bench/main.exe -- netsim smoke
	dune exec bench/main.exe -- netsim-batch smoke
	dune exec bench/main.exe -- readback smoke
	dune exec bench/main.exe -- hub smoke
	dune exec bench/main.exe -- vti smoke
	dune exec bench/main.exe -- fuzz smoke

# The socketed farm, end to end: 64 loopback clients against 2 board
# shards, with the scripted session checked bit-for-bit against the
# in-process tick path and per-shard coalescing ratios recorded in
# artifacts/BENCH_hub_farm_smoke.json.
hub-farm-smoke:
	dune exec bench/main.exe -- hub-farm smoke

# Observability gate (expects the smoke benches to have run): the bench
# records must embed a metrics snapshot with the cross-layer keys, and a
# traced 4-client hub demo must produce a Chrome trace that names the
# coalesced sweep.
obs-smoke:
	grep -q '"metrics"' artifacts/BENCH_netsim_smoke.json
	grep -q '"netsim.events_settled"' artifacts/BENCH_netsim_smoke.json
	grep -q '"metrics"' artifacts/BENCH_netsim_batch_smoke.json
	grep -q '"netsim.batch.lanes"' artifacts/BENCH_netsim_batch_smoke.json
	grep -q '"netsim.partition_dispatches"' artifacts/BENCH_netsim_batch_smoke.json
	grep -q '"metrics"' artifacts/BENCH_hub_smoke.json
	grep -q '"hub.cable_seconds"' artifacts/BENCH_hub_smoke.json
	grep -q '"jtag.seconds"' artifacts/BENCH_hub_smoke.json
	grep -q '"metrics"' artifacts/BENCH_readback_smoke.json
	grep -q '"metrics"' artifacts/BENCH_vti_smoke.json
	grep -q '"seed"' artifacts/BENCH_fuzz_smoke.json
	grep -q '"schedule_digest"' artifacts/BENCH_fuzz_smoke.json
	grep -q '"metrics"' artifacts/BENCH_hub_farm_smoke.json
	grep -q '"farm.shard0.coalescing_ratio"' artifacts/BENCH_hub_farm_smoke.json
	grep -q '"sharded_speedup"' artifacts/BENCH_hub_farm_smoke.json
	for f in artifacts/BENCH_*.json; do \
	  grep -q '"metrics"' $$f || { echo "$$f: no metrics"; exit 1; }; \
	  grep -q '"seed"' $$f || { echo "$$f: no seed"; exit 1; }; \
	done
	mkdir -p artifacts
	dune exec bin/zoomie_cli.exe -- hub --clients 4 --trace artifacts/hub_trace_smoke.json > /dev/null
	grep -q '"hub.sweep"' artifacts/hub_trace_smoke.json

# Campaign-level gate for `zoomie fuzz` itself: (1) a split campaign
# (run 6 cases, then --resume to 12) must land on the same schedule
# digest as a one-shot 12-case campaign — resumption is deterministic;
# (2) a --broken-op campaign must find divergences and write at least
# one minimized reproducer to the corpus.
fuzz-smoke:
	rm -rf artifacts/fuzz_smoke_a artifacts/fuzz_smoke_b artifacts/fuzz_smoke_broken
	dune exec bin/zoomie_cli.exe -- fuzz --oracle netsim --seed 7 --budget 6 \
	  --corpus artifacts/fuzz_smoke_a
	dune exec bin/zoomie_cli.exe -- fuzz --oracle netsim --seed 7 --budget 12 \
	  --corpus artifacts/fuzz_smoke_a --resume
	dune exec bin/zoomie_cli.exe -- fuzz --oracle netsim --seed 7 --budget 12 \
	  --corpus artifacts/fuzz_smoke_b
	grep '"schedule_digest"' artifacts/fuzz_smoke_a/report.json > artifacts/fuzz_digest_a
	grep '"schedule_digest"' artifacts/fuzz_smoke_b/report.json > artifacts/fuzz_digest_b
	cmp artifacts/fuzz_digest_a artifacts/fuzz_digest_b
	dune exec bin/zoomie_cli.exe -- fuzz --oracle netsim --seed 7 --budget 4 \
	  --corpus artifacts/fuzz_smoke_broken --broken-op --minimize
	ls artifacts/fuzz_smoke_broken/min/*.repro > /dev/null

# Flight-recorder gate: `timeline smoke` fails hard if recording the
# session costs more than 10% extra cable time, if a saved recording
# does not replay bit-for-bit on a fresh rig, or if reverse-continue
# misses its target cycle.  It leaves a sample recording in
# artifacts/timeline_sample.zrec (uploaded by CI) that `zoomie replay`
# can re-drive; the trailing greps pin the timeline.* instrumentation
# into the bench record.
timeline-smoke:
	dune exec bench/main.exe -- timeline smoke
	grep -q '"metrics"' artifacts/BENCH_timeline_smoke.json
	grep -q '"timeline.checkpoints"' artifacts/BENCH_timeline_smoke.json
	grep -q '"timeline.restore_jtag_s"' artifacts/BENCH_timeline_smoke.json
	dune exec bin/zoomie_cli.exe -- replay artifacts/timeline_sample.zrec > /dev/null

# The benchmark's three workloads for 4 s each on seed 1 (~7-10 s per
# run): VTI recompile -> partial load -> attach -> step -> readback on
# the 108-core SoC, the socket farm's shared debug loop, and a recorded
# session with reverse-continue and when-did.  Each run exits 1 on any
# failed output check (incl. bit-for-bit vs Vti.Flow_baseline,
# transcripts, step totals, replayed state).
perfbench-smoke:
	dune exec perfbench/main.exe -- --workload vti_edit_loop --seed 1 --seconds 4
	dune exec perfbench/main.exe -- --workload farm_debug --seed 1 --seconds 4
	dune exec perfbench/main.exe -- --workload reverse_debug --seed 1 --seconds 4

check: build
	dune runtest
	$(MAKE) bench-smoke
	$(MAKE) hub-farm-smoke
	$(MAKE) obs-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) timeline-smoke

clean:
	dune clean
	rm -rf artifacts
