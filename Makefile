GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmt-check vet test race verify bench elision explore explore-smoke portfolio-smoke portfolio-race portfolio profile-smoke vet-smoke vet2-smoke obs vet-bench ablation serve-smoke serve-bench obs-smoke

all: verify

build:
	$(GO) build ./...

# fmt-check fails when any Go file in the tree is not gofmt-formatted.
fmt-check:
	@out=$$($(GOFMT) -l .); \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi
	@echo "fmt-check ok"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/paged ./internal/shadow ./internal/interp ./internal/refcount ./internal/sched ./internal/telemetry ./internal/portfolio ./internal/serve ./internal/obsrv ./internal/absint

# verify is the gate for every change: build, gofmt, go vet, the full test
# suite, the race detector over the concurrency-bearing packages, and the
# exploration, portfolio, profile, static-analysis, and execution-service
# smokes.
verify: build fmt-check vet test race explore-smoke portfolio-smoke profile-smoke vet-smoke vet2-smoke serve-smoke obs-smoke

bench:
	$(GO) test -bench=. -benchmem .

# elision regenerates BENCH_elision.json (the check-elision ladder).
elision:
	$(GO) run ./cmd/sharc-bench -elision

# explore regenerates BENCH_explore.json (exploration vs free running).
explore:
	$(GO) run ./cmd/sharc-bench -explore

# obs regenerates BENCH_obs.json (telemetry overhead tiers).
obs:
	$(GO) run ./cmd/sharc-bench -obs -reps 5

# explore-smoke runs the schedule explorer over two clean corpus programs
# at three base seeds each; any finding makes sharc exit non-zero and
# fails the target. Kept small so the whole sweep stays well under 30s.
explore-smoke:
	@for prog in internal/interp/testdata/bank.shc internal/interp/testdata/barrier.shc; do \
		for seed in 1 2 3; do \
			echo "explore $$prog seed=$$seed"; \
			$(GO) run ./cmd/sharc explore -schedules 10 -seed $$seed $$prog || exit 1; \
		done; \
	done

# portfolio-smoke pins the worker-count-independence contract from the
# shell: the same seeded exploration at 1, 2, and 8 workers must write
# byte-identical JSON, across all three sharing topologies.
portfolio-smoke:
	@$(GO) run ./cmd/sharc explore -schedules 20 -seed 5 -workers 1 -json /tmp/shc-pf-1.json internal/interp/testdata/racy_pair.shc > /dev/null 2>&1; \
	for workers in 2 8; do \
		for share in none local global; do \
			$(GO) run ./cmd/sharc explore -schedules 20 -seed 5 -workers $$workers -share $$share -json /tmp/shc-pf-k.json internal/interp/testdata/racy_pair.shc > /dev/null 2>&1; \
			cmp /tmp/shc-pf-1.json /tmp/shc-pf-k.json || { echo "portfolio output diverges at workers=$$workers share=$$share"; exit 1; }; \
		done; \
	done
	@echo "portfolio-smoke ok"

# portfolio-race hammers a multi-worker exploration of the racy corpus
# under the race detector (the explorer's internal concurrency, not just
# the packages' unit tests).
portfolio-race:
	$(GO) test -race ./internal/interp -run 'TestExploreWorkerCountIndependence|TestExploreProcessIsolation' -count 1

# portfolio regenerates BENCH_portfolio.json (scaling vs worker count).
portfolio:
	$(GO) run ./cmd/sharc-bench -portfolio -reps 3

# profile-smoke pins the deterministic-profile claim from the shell: the
# same seeded profile twice, byte-identical, with the trace export intact.
profile-smoke:
	@$(GO) run ./cmd/sharc profile -seed 7 examples/profile/hotsites.shc > /tmp/shc-prof-a.txt || exit 1
	@$(GO) run ./cmd/sharc profile -seed 7 examples/profile/hotsites.shc > /tmp/shc-prof-b.txt || exit 1
	@cmp /tmp/shc-prof-a.txt /tmp/shc-prof-b.txt || { echo "profile not deterministic"; exit 1; }
	@$(GO) run ./cmd/sharc profile -seed 7 -trace-out /tmp/shc-prof.jsonl examples/profile/hotsites.shc > /dev/null || exit 1
	@echo "profile-smoke ok"

# vet-smoke runs the static analyzer over the whole corpus and asserts
# the partition is exact: every clean program vets with zero must
# findings (exit 0), every seeded-racy program with at least one (exit 1).
vet-smoke:
	@for prog in internal/interp/testdata/*.shc; do \
		case $$prog in \
		*racy_*) \
			$(GO) run ./cmd/sharc vet $$prog > /dev/null 2>/dev/null; \
			[ $$? -eq 1 ] || { echo "vet missed the seeded race in $$prog"; exit 1; };; \
		*) \
			$(GO) run ./cmd/sharc vet $$prog > /dev/null || { echo "false must verdict in $$prog"; exit 1; };; \
		esac; \
	done
	@echo "vet-smoke ok"

# vet2-smoke is the abstract-interpretation acceptance gate: on every
# Table-1 benchmark the absint tier must push the statically avoided
# check fraction past 90%, resolve every would-be finding, and keep the
# discharged build's reports and exit byte-identical to the elide-only
# build.
vet2-smoke:
	$(GO) test ./internal/bench -run TestVet2Smoke -count 1

# serve-smoke drives the execution service from the shell the way an
# operator would: build both binaries, start `sharc serve` on an ephemeral
# port, fire the sharc-bench assertion harness at it (1000 sequential +
# 100 concurrent mixed-program requests, every reply byte-deterministic),
# then SIGTERM and require a clean drain (exit 0). The queue is raised to
# 256 because the harness throws 100 simultaneous arrivals at 4 workers —
# the default queue of 64 would (correctly) refuse the overflow.
serve-smoke:
	@$(GO) build -o /tmp/shc-serve-bin ./cmd/sharc
	@$(GO) build -o /tmp/shc-serve-bench ./cmd/sharc-bench
	@rm -f /tmp/shc-serve-addr; \
	/tmp/shc-serve-bin serve -addr 127.0.0.1:0 -addr-file /tmp/shc-serve-addr -queue 256 2>/tmp/shc-serve-log & \
	pid=$$!; \
	for i in $$(seq 1 200); do [ -s /tmp/shc-serve-addr ] && break; sleep 0.05; done; \
	[ -s /tmp/shc-serve-addr ] || { echo "serve never came up"; cat /tmp/shc-serve-log; kill $$pid; exit 1; }; \
	/tmp/shc-serve-bench -serve-smoke -serve-addr "$$(cat /tmp/shc-serve-addr)" || { kill $$pid; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "serve did not drain cleanly"; cat /tmp/shc-serve-log; exit 1; }
	@echo "serve-smoke ok"

# obs-smoke drives the observability surface of a real `sharc serve`
# process from the shell: 50 requests with unique X-Sharc-Request ids and
# deterministic replies, /metrics parsing as Prometheus text, a forced
# slow request leaving a five-phase span capture in the capture dir, and
# SIGTERM flipping /healthz to 503 during the drain grace before a clean
# exit 0.
obs-smoke:
	@$(GO) build -o /tmp/shc-obs-bin ./cmd/sharc
	@$(GO) build -o /tmp/shc-obs-bench ./cmd/sharc-bench
	@rm -rf /tmp/shc-obs-caps /tmp/shc-obs-addr /tmp/shc-obs-access.log; \
	mkdir -p /tmp/shc-obs-caps; \
	/tmp/shc-obs-bin serve -addr 127.0.0.1:0 -addr-file /tmp/shc-obs-addr \
		-slow-ms 1 -capture-dir /tmp/shc-obs-caps \
		-access-log /tmp/shc-obs-access.log -drain-grace-ms 1500 \
		2>/tmp/shc-obs-log & \
	pid=$$!; \
	for i in $$(seq 1 200); do [ -s /tmp/shc-obs-addr ] && break; sleep 0.05; done; \
	[ -s /tmp/shc-obs-addr ] || { echo "serve never came up"; cat /tmp/shc-obs-log; kill $$pid; exit 1; }; \
	/tmp/shc-obs-bench -obs-smoke -serve-addr "$$(cat /tmp/shc-obs-addr)" \
		-obs-pid $$pid -obs-capture-dir /tmp/shc-obs-caps || { kill $$pid; exit 1; }; \
	wait $$pid || { echo "serve did not drain cleanly"; cat /tmp/shc-obs-log; exit 1; }; \
	[ -s /tmp/shc-obs-access.log ] || { echo "access log is empty"; exit 1; }
	@echo "obs-smoke ok"

# serve-bench regenerates BENCH_serve.json (service load scenarios).
serve-bench:
	$(GO) run ./cmd/sharc-bench -serve

# vet-bench regenerates BENCH_vet.json (static discharge vs elision alone).
vet-bench:
	$(GO) run ./cmd/sharc-bench -vet

# ablation regenerates BENCH_ablation.json (avoided checks per absint tier).
ablation:
	$(GO) run ./cmd/sharc-bench -ablate
