GO ?= go
GOFMT ?= gofmt

.PHONY: all build bench-build bench-test fmt-check vet test race fuzz-smoke verify bench explore explore-smoke workers-smoke profile-smoke vet-smoke vet2-smoke obs vet-bench ablation serve-smoke serve-bench obs-smoke

all: verify

build:
	$(GO) build ./...

# bench-build vets the benchmark module: benchmark/ is its own module, so
# `go build ./...` never compiles it, and a change to a package it imports
# would otherwise break it silently.
bench-build:
	cd benchmark && $(GO) vet ./...

# bench-test runs the benchmark module's tests: they check every pinned
# exit on the uninstrumented build and run each workload, whose table1
# operations check the checked build's exits too, so a change to what
# either build executes shows here.
bench-test:
	cd benchmark && $(GO) test ./...

# fmt-check fails when any Go file in the tree is not gofmt-formatted.
fmt-check:
	@out=$$($(GOFMT) -l .); \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi
	@echo "fmt-check ok"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race also repeats the teardown tests ten times, the interpreter's
# interrupts of scheduled runs included: the controller's state is owned
# by the token holder, and only Abort, deadlock teardown and the tasks
# they release run beside it.
race:
	$(GO) test -race ./internal/paged ./internal/shadow ./internal/interp ./internal/refcount ./internal/sched ./internal/telemetry ./internal/serve ./internal/obsrv ./internal/absint
	$(GO) test -race -count=10 -run 'Abort|Deadlock|Teardown|TokenSerialization' ./internal/sched
	$(GO) test -race -count=10 -run 'TestInterruptSeededRun|TestInterruptIdempotentAndLate|TestInterruptUnbegunSpawner' ./internal/interp

# fuzz-smoke fuzzes for 10 seconds each the shadow runtime against its
# reference model (the n-readers-xor-1-writer rule over plain maps), the
# two-level paged tables against a map model of their elements, bits and
# allocated pages, the cell memory against a map model that empties when
# the memory is released and its directory reused, and the front end plus
# compile pipeline against the flat verifier (no panic, no "ir
# verification failed"). New coverage is minimized for at most 1s, so the
# smoke spends its time executing inputs rather than shrinking them.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzShadowDiscipline$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/shadow
	$(GO) test -run '^$$' -fuzz '^FuzzPagedTable$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/paged
	$(GO) test -run '^$$' -fuzz '^FuzzInt64s$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/paged
	$(GO) test -run '^$$' -fuzz '^FuzzCompileVerifies$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/core

# verify is the gate for every change: build, the benchmark module's vet
# and tests, gofmt, go vet, the full test suite, the race detector over
# the concurrency-bearing packages (the multi-worker explorer's tests
# included), the shadow and compile fuzz smokes, and the exploration,
# worker-count-independence, profile, static-analysis, and
# execution-service smokes.
verify: build bench-build bench-test fmt-check vet test race fuzz-smoke explore-smoke workers-smoke profile-smoke vet-smoke vet2-smoke serve-smoke obs-smoke

bench:
	$(GO) test -bench=. -benchmem .

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

# workers-smoke pins the worker-count-independence contract from the
# shell: the same seeded exploration at 1, 2, and 8 workers must write
# byte-identical JSON, under each strategy. The rr pass repeats four
# strategy identities, so most of its schedules are duplicates copied at
# the merge. racy_fresh
# reads memory before writing it, and its reports depend on reading 0, so
# a cell leaking from one schedule's runtime into the next one set up on
# its recycled memory shows as a diff.
workers-smoke:
	@$(GO) build -o /tmp/shc-pf-bin ./cmd/sharc
	@for prog in racy_pair racy_fresh; do \
		for strategy in mix rr pct random; do \
			/tmp/shc-pf-bin explore -schedules 20 -seed 5 -strategy $$strategy -workers 1 -json /tmp/shc-pf-1.json internal/interp/testdata/$$prog.shc > /dev/null 2>&1; \
			[ -s /tmp/shc-pf-1.json ] || { echo "explore wrote no JSON for $$prog"; exit 1; }; \
			for workers in 2 8; do \
				/tmp/shc-pf-bin explore -schedules 20 -seed 5 -strategy $$strategy -workers $$workers -json /tmp/shc-pf-k.json internal/interp/testdata/$$prog.shc > /dev/null 2>&1; \
				cmp /tmp/shc-pf-1.json /tmp/shc-pf-k.json || { echo "explore output diverges on $$prog at strategy=$$strategy workers=$$workers"; exit 1; }; \
			done; \
			rm -f /tmp/shc-pf-1.json /tmp/shc-pf-k.json; \
		done; \
	done
	@echo "workers-smoke ok"

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
# discharged build's reports and exit byte-identical to the default
# checked build.
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

# vet-bench regenerates BENCH_vet.json (static discharge vs full checks).
vet-bench:
	$(GO) run ./cmd/sharc-bench -vet

# ablation regenerates BENCH_ablation.json (avoided checks per absint tier).
ablation:
	$(GO) run ./cmd/sharc-bench -ablate
