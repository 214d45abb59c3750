PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-aio test-faults test-serve test-parity test-http test-triage test-mvcc coverage lint bench serve-bench

# Tier-1: the fast deterministic suite gating every change, plus the
# cross-executor parity contract, the async-transport suite, and the
# serving-layer coverage gate.
test:
	$(PYTHON) -m pytest -x -q
	$(MAKE) test-parity
	$(MAKE) test-aio
	$(MAKE) coverage

# The asyncio transport: its own unit suite, the sans-IO HTTP/1.1 core
# both transports drive, and the keep-alive wire contract parameterized
# over both transports (thread + async).
test-aio:
	$(PYTHON) -m pytest tests/serve/test_aio.py tests/serve/test_http11.py tests/quest/test_keepalive.py -q

# Tier-2: seeded fault-injection scenarios (torn WALs, bit flips,
# crashes mid-save, poisoned CASes, slow/flaky serving workers) across
# 5 seeds per scenario.
test-faults:
	$(PYTHON) -m pytest -q -m faults

# The serving gateway's unit + integration suite on its own.
test-serve:
	$(PYTHON) -m pytest tests/serve -q

# Byte-identical ranked lists: in-process vs gateway vs both transports
# across 5 seeds, the ranked kNN classifier (counting retrieval, top-k
# selection, frozen view) against the reference Fig. 5/7 transcription,
# bag-of-concepts extraction against the offset-keeping matcher, the
# Fig. 8 UIMA pipeline (tokenizer engine, CAS features) against the
# extractor in all four feature modes, and ranked-list persistence that
# skips unchanged lists against "the last list wins" (stored rows, rows
# written, no WAL record for an unchanged call, recovery).
test-parity:
	$(PYTHON) -m pytest tests/serve/test_parity.py tests/classify/test_reference_oracle.py tests/taxonomy/test_concept_oracle.py "tests/core/test_qatk.py::TestPipelineMatchesExtractor" "tests/classify/test_results.py::TestStoreElisionOracle" -q

# The HTTP transport on its own: webapp routes, the sans-IO HTTP/1.1
# core, keep-alive wire behavior, and the pooled client.
test-http:
	$(PYTHON) -m pytest tests/quest/test_webapp.py tests/serve/test_http11.py tests/quest/test_keepalive.py tests/serve/test_httpclient.py -q

# Human-in-the-loop triage on its own: confidence scoring, the override
# store, the review queue, per-part profiles and calibration.
test-triage:
	$(PYTHON) -m pytest tests/triage -q

# The MVCC battery on its own: the isolation-anomaly suite (dirty
# read, non-repeatable read, lost update, write skew), WAL framing +
# group commit and the record-encoding oracle (one-pass records equal
# the two-pass reference byte for byte), multi-row statements (one
# commit, all or nothing, one WAL frame, torn-frame recovery, read views
# under forced seal/unlink/GC interleavings), the SQLite oracle (random
# scripts of writes, queries, aggregates, transactions and savepoints,
# each checked against stdlib sqlite3), and the seeded mid-transaction
# crash scenarios.
test-mvcc:
	$(PYTHON) -m pytest tests/relstore/test_mvcc_anomalies.py tests/relstore/test_wal.py tests/relstore/test_statements.py tests/relstore/test_sqlite_oracle.py -q
	$(PYTHON) -m pytest tests/relstore/test_mvcc_crash.py -q -m faults

# Line-coverage gate for src/repro/serve/ + src/repro/triage/ +
# src/repro/relstore/ (pytest-cov when installed, stdlib settrace
# fallback otherwise; floor in tools/coverage_serve.py).
coverage:
	$(PYTHON) tools/coverage_serve.py tests/serve tests/triage tests/relstore tests/quest/test_keepalive.py -q

lint:
	$(PYTHON) tools/lint_bare_except.py src
	$(PYTHON) tools/lint_row_scan.py src/repro

bench:
	$(PYTHON) -m pytest benchmarks -q

# Closed-loop serving load benchmark + schema check on its JSON output.
serve-bench:
	$(PYTHON) -m pytest benchmarks/bench_serving.py -q
	$(PYTHON) tools/check_bench_serving.py
