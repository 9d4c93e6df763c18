GO ?= go

.PHONY: all vet build test race cover bench bench-json chaos scenarios metrics scaleout timeshift adversary megascale check

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector, then the mixed-shard stress once
# more at a forced GOMAXPROCS: the shard-invariance goldens run the same
# scenarios at shards 0, 1, 2 and 8, so lane workers, the epoch barrier
# and arena recycling execute under a second thread schedule with the
# checker watching cross-lane memory orderings.
race:
	$(GO) test -race ./...
	GOMAXPROCS=4 $(GO) test -race -run 'ShardGolden|ShardedStress' ./internal/sim ./internal/exp

# Coverage over every package, with a per-function summary. Writes
# cover.out (ignored by git) for `go tool cover -html=cover.out`.
# The rights-critical packages — key ring, attribute certificates,
# tickets, and the conformance oracle — are gated: if any drops below
# COVER_FLOOR% statement coverage the target fails, so a PR cannot strip
# their tests without turning CI red.
COVER_FLOOR ?= 80
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -1
	@for pkg in internal/keys internal/attr internal/ticket internal/conform; do \
		pct=$$(awk -v pkg="p2pdrm/$$pkg/" 'NR>1 && index($$1, pkg)==1 { total+=$$2; if ($$3>0) cov+=$$2 } END { if (total==0) print "0"; else printf "%.1f", 100*cov/total }' cover.out); \
		awk "BEGIN{exit !($$pct >= $(COVER_FLOOR))}" || { echo "coverage floor: $$pkg at $$pct% < $(COVER_FLOOR)%"; exit 1; }; \
		echo "cover gate: $$pkg $$pct% >= $(COVER_FLOOR)%"; \
	done

# Quick smoke of every benchmark (~0.1s each): catches bit-rot, not a
# measurement. MEGA_VIEWERS shrinks the megascale scenario so the smoke
# stays fast; drop the override for the real million-viewer run.
bench:
	MEGA_VIEWERS=20000 $(GO) test -run '^$$' -bench . -benchtime 0.1s -benchmem .

# Full measured run of the crypto hot-path set, recorded as
# BENCH_<date>.json (see cmd/benchjson).
bench-json:
	$(GO) run ./cmd/benchjson

# Fault-injection suite under the race detector: the resilience policy
# and simnet fault machinery, the chaos scenarios (manager-farm crashes,
# partitions, the faulty flash crowd), and the golden fingerprints that
# prove fault-free runs stayed byte-identical.
chaos:
	$(GO) test -race ./internal/obs ./internal/svc ./internal/simnet ./internal/client
	$(GO) test -race -run 'Chaos|FaultFlash' -v ./internal/core ./internal/exp
	$(GO) test -run 'DeterminismGolden|ShardGolden' ./internal/exp

# Scenario smoke targets: each runs one drmsim figure with -metrics and
# -trace into out/<target> and sanity-checks the artifacts — every
# export non-empty, the time series and phase table in chronological
# order, real trace_event JSON, assembled login and switch journeys in
# the waterfall, login1 stages on the critical path. The scenarios' own
# acceptance bars (flat p95, zero failed logins, zero false
# grants/denials, typed refusals) are pinned by their tests; these
# targets prove each figure path and its exports work. `make scenarios`
# runs them all:
#   metrics    the faulty flash crowd (crash, loss, partition)
#   scaleout   the crowd grows 10× while members join via resharding
#   timeshift  seeks into retained history across a mid-event lapse
#   adversary  re-key storm, free-riders, replayed/stolen/forged tickets
fig_metrics = faults
fig_scaleout = scaleout
fig_timeshift = timeshift
fig_adversary = adversary
scenarios: metrics scaleout timeshift adversary
metrics scaleout timeshift adversary:
	rm -rf out/$@
	$(GO) run ./cmd/drmsim -fig $(fig_$@) -metrics out/$@ -trace out/$@ > /dev/null
	@for f in phases.csv endpoints.csv calls.csv series.csv trace.jsonl trace_events.json waterfall.txt critical_path.csv; do \
		test -s out/$@/$(fig_$@)_$$f || { echo "empty export: $(fig_$@)_$$f"; exit 1; }; \
	done
	@tail -n +2 out/$@/$(fig_$@)_series.csv | sort -c -t, -k1,1 || { echo "$(fig_$@)_series.csv not time-sorted"; exit 1; }
	@tail -n +2 out/$@/$(fig_$@)_phases.csv | sort -c -s -t, -k2,2 || { echo "$(fig_$@)_phases.csv not time-sorted"; exit 1; }
	@grep -q '"traceEvents"' out/$@/$(fig_$@)_trace_events.json || { echo "no traceEvents array"; exit 1; }
	@grep -q 'journey login' out/$@/$(fig_$@)_waterfall.txt || { echo "no login journeys in waterfall"; exit 1; }
	@grep -q 'journey switch' out/$@/$(fig_$@)_waterfall.txt || { echo "no switch journeys in waterfall"; exit 1; }
	@tail -n +2 out/$@/$(fig_$@)_critical_path.csv | grep -q login1 || { echo "no login1 stages in critical path"; exit 1; }
	@echo "$@ exports OK: $$(ls out/$@ | wc -l) files in out/$@"

# Million-viewer engine capacity study: the full sweep, with the largest
# point streaming its metric series (CSV + JSONL) into out/megascale so
# the run's heap stays bounded regardless of duration. SHARDS sets the
# worker lane count (e.g. `make megascale SHARDS=8`); the exported
# series are byte-identical for every shard count.
SHARDS ?= 1
megascale:
	rm -rf out/megascale
	$(GO) run ./cmd/drmsim -fig megascale -shards $(SHARDS) -metrics out/megascale
	@for f in megascale_series.csv megascale_series.jsonl; do \
		test -s out/megascale/$$f || { echo "empty export: $$f"; exit 1; }; \
	done
	@tail -n +2 out/megascale/megascale_series.csv | sort -c -t, -k1,1 || { echo "megascale_series.csv not time-sorted"; exit 1; }
	@echo "megascale exports OK: $$(ls out/megascale | wc -l) files in out/megascale"

check: vet build race bench scenarios
