# Test, lint and benchmark entry points.
#
# `test` is the tier-1 gate (everything, including slow fuzz sweeps and
# the wall-clock parallel tests).  `test-fast` drops the `slow` marker for
# quick iteration; `test-slow` runs only the long sweeps, sized for a
# scheduled job where the differential fuzzers can afford more cases.
# `test-chaos` runs the fault-injection campaigns plus a CLI-level chaos
# run; the campaign falls back to the inline executor on hosts without
# usable multiprocessing, so the target degrades gracefully everywhere.
# `test-backends` runs the kernel-backend suites (engine table, differential
# fuzz, pickling, backend-parameterized conformance), the speedup gate
# that maintains BENCH_backends.json, and the end-to-end smoke (all four
# benchmark workloads at 2% scale through their replay, BPM and
# Hirschberg oracles).  There is no engine setting to sweep: the GMX
# aligners run `bitpar`, and each suite names `pure` itself wherever it
# needs the reference, so one run covers both.
# `test-cov` runs the fast suite under pytest-cov and enforces COV_MIN
# (skipped with a notice when pytest-cov is not installed — the repro
# container ships without it; CI installs it in the coverage job).
# `lint` chains ruff and mypy (skipped with a notice when not installed —
# the repro container ships without them; CI installs both), the
# `dispatch-lint` grep (`apply_async`/`imap` may appear in src/repro only
# in align/parallel.py, so `WorkerPool.submit` stays the one way a shard
# is dispatched) and always finishes with the in-tree static analyzer,
# `repro lint`.
# `sanitize` runs the concurrency & determinism sanitizer: the
# worker-reachability scan plus guarded/shadow execution (`repro
# sanitize`), its violation-corpus self-check (which must exit non-zero),
# the sanitizer unit suites, and the conformance suite with the
# batch-boundary leak checks armed (`--sanitize`).
# `serve-test` runs the alignment-service suites (cache, coalescer, pool
# lifecycle, service, HTTP, obs drain, load smoke), the serving-path
# chaos drill through the CLI (`repro chaos --serve`), a load-generator
# smoke, and the warm-pool latency gate (`benchmarks/test_serve_latency.py`,
# which keeps `BENCH_serve.json` current).
# `dist-test` runs the distributed-execution suites (protocol, packing,
# worker node, coordinator, dist chaos) plus the multi-node chaos drill
# through the CLI (`repro chaos --dist`: 3 supervised localhost worker
# processes, seeded node faults, byte-identical + exactly-once proof).
# `stream-test` runs the chromosome-scale streaming suites (chunker,
# canonical CIGAR forms, stitcher, pipeline + engines, chunking
# invariance + window conformance properties, the tracemalloc O(chunk)
# memory gate), the mapper suites (the stream's sketch filter lives in
# `repro.mapper.windows`), the seqio streaming tests, the BENCH_stream.json
# benchmark, and a scaled end-to-end conformance drill through the CLI
# (1 Mbp reference x 100 kbp query, 50 Hirschberg-verified windows on
# the pool engine, plus a serial run whose score and CIGAR must match).

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest
COV_MIN ?= 80

.PHONY: test test-fast test-slow test-chaos test-cov test-backends bench verify lint dispatch-lint sanitize serve-test dist-test stream-test

test:
	$(PYTEST) -x -q

test-fast:
	$(PYTEST) -x -q -m "not slow"

test-cov:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTEST) -q -m "not slow" \
			--cov=repro --cov-report=term-missing \
			--cov-fail-under=$(COV_MIN); \
	else \
		echo "pytest-cov not installed; skipping coverage gate (pip install pytest-cov)"; \
	fi

test-slow:
	$(PYTEST) -q -m slow

test-chaos:
	$(PYTEST) -q -m chaos
	PYTHONPATH=src $(PYTHON) -m repro chaos --seed 7 --faults 25

test-backends:
	$(PYTEST) -q tests/align/test_backends.py \
		tests/align/test_backend_differential.py \
		tests/align/test_backend_pickling.py \
		tests/conformance
	$(PYTEST) -q benchmarks/test_backend_speedup.py
	$(PYTEST) -q benchmarks/e2e/test_e2e_smoke.py

serve-test:
	$(PYTEST) -q tests/serve
	PYTHONPATH=src $(PYTHON) -m repro chaos --serve --pairs 16 --workers 2
	PYTHONPATH=src $(PYTHON) -m repro bench serve \
		--requests 60 --clients 4 --unique 12 --workers 2
	$(PYTEST) -q benchmarks/test_serve_latency.py

dist-test:
	$(PYTEST) -q tests/dist
	PYTHONPATH=src $(PYTHON) -m repro chaos --dist \
		--seed 29 --faults 30 --nodes 3 --length 32 --lease-timeout 1.2

stream-test:
	$(PYTEST) -q tests/stream tests/mapper tests/workloads/test_seqio.py
	$(PYTEST) -q benchmarks/test_stream_memory.py
	PYTHONPATH=src $(PYTHON) tests/stream/e2e_fixture.py /tmp/stream-e2e
	PYTHONPATH=src $(PYTHON) -m repro stream align \
		/tmp/stream-e2e/e2e_ref.fasta /tmp/stream-e2e/e2e_query.fasta \
		--record chrE2E --engine pool --workers 2 \
		--verify-windows 50 --seed 7 --json /tmp/stream-e2e/pool.json
	PYTHONPATH=src $(PYTHON) -m repro stream align \
		/tmp/stream-e2e/e2e_ref.fasta /tmp/stream-e2e/e2e_query.fasta \
		--record chrE2E --engine serial --json /tmp/stream-e2e/serial.json
	$(PYTHON) -c 'import json; \
		pool, serial = (json.load(open(f"/tmp/stream-e2e/{e}.json")) for e in ("pool", "serial")); \
		assert (serial["score"], serial["cigar"]) == (pool["score"], pool["cigar"]), "serial and pool engines disagree"'

bench:
	$(PYTEST) -q benchmarks

verify:
	PYTHONPATH=src $(PYTHON) -m repro verify

sanitize:
	PYTHONPATH=src $(PYTHON) -m repro sanitize
	@if PYTHONPATH=src $(PYTHON) -m repro sanitize --corpus \
			--skip-static --skip-dynamic --skip-shadow >/dev/null; then \
		echo "violation corpus sanitized clean — dsan lost its teeth" >&2; \
		exit 1; \
	fi
	$(PYTEST) -q tests/analysis/test_sanitizer_reachability.py \
		tests/analysis/test_sanitizer_guards.py \
		tests/analysis/test_sanitizer_shadow.py \
		tests/analysis/test_sanitizer_corpus.py \
		tests/analysis/test_sanitizer_campaign.py \
		tests/analysis/test_sarif.py
	$(PYTEST) -q tests/conformance --sanitize

lint: dispatch-lint
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests; \
	else \
		echo "ruff not installed; skipping (pip install -e .[lint])"; \
	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --config-file pyproject.toml; \
	else \
		echo "mypy not installed; skipping (pip install -e .[lint])"; \
	fi
	PYTHONPATH=src $(PYTHON) -m repro lint

dispatch-lint:
	@if grep -rnE 'apply_async|\bimap' src/repro --include='*.py' \
			| grep -v '^src/repro/align/parallel\.py:'; then \
		echo "dispatch shards through WorkerPool.submit (align/parallel.py)" >&2; \
		exit 1; \
	fi
