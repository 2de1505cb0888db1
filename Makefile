GO ?= go

.PHONY: build test race lint chaos chaos-store online fuzz bench results ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short -timeout 30m ./...

lint:
	$(GO) run ./cmd/tcrlint -tests ./...

# chaos exercises the numerical-resilience layer under seeded fault
# injection (the lpchaos build tag compiles the injection hooks in).
chaos:
	$(GO) test -tags lpchaos -timeout 10m ./internal/...

# chaos-store runs the storage fault-injection and crash-consistency
# harness (seeded EIO/ENOSPC/short-write/lying-fsync faults plus a crash at
# every filesystem operation of the commit protocol), race-enabled.
chaos-store:
	$(GO) test -race -count=1 -tags "storechaos lpchaos" -timeout 10m ./internal/store ./internal/serve

# online runs the online-design-loop suite: observe ingestion, the
# drift-and-retune e2e, restart resume, and the re-solve-failure chaos case.
online:
	$(GO) test -race -count=1 -run 'Online|Observe' -timeout 10m ./internal/serve ./internal/online
	$(GO) test -tags lpchaos -count=1 -run 'OnlineResolveFailureChaos' -timeout 10m ./internal/serve

fuzz:
	$(GO) test ./internal/lp -run='^$$' -fuzz=FuzzReadMPS -fuzztime=5s
	$(GO) test ./internal/matching -run='^$$' -fuzz=FuzzHungarian -fuzztime=5s
	$(GO) test -tags lpchaos ./internal/lp -run='^$$' -fuzz=FuzzRecoveryLadder -fuzztime=5s
	$(GO) test ./internal/store -run='^$$' -fuzz=FuzzStoreManifest -fuzztime=5s

# bench records the LP-engine, simulator and evaluator benchmark suites into
# BENCH_lp.json, BENCH_sim.json and BENCH_eval.json.
bench:
	sh scripts/bench.sh

# results regenerates every committed results/*.txt file and cmp's it
# against the committed copy.
results:
	sh scripts/results.sh

# ci is the full verification gate: build, vet, the repo's own static
# analyzer, race-enabled tests, a bench smoke, and a short fuzz smoke.
ci:
	sh scripts/check.sh
