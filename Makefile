# Convenience targets for the Digest reproduction.

PYTHON ?= python

.PHONY: install test bench results examples full-scale clean lint typecheck check

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# digest-analyzer (stdlib-only, always available) + ruff when installed.
# See docs/DEVELOPMENT.md for the DGL rule catalog (per-file DGL001-008,
# cross-module DGL009-015) and the baseline/pragma policy.
lint:
	$(PYTHON) -m tools.digest_analyzer
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests tools benchmarks examples; \
	else \
		echo "ruff not installed -- skipping (pip install ruff)"; \
	fi

typecheck:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed -- skipping (pip install mypy)"; \
	fi

# everything CI runs, in CI's order
check: lint typecheck test

test-all: export REPRO_RUN_EXAMPLES=1
test-all:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

results: bench
	$(PYTHON) benchmarks/collect_results.py

examples:
	@for example in examples/*.py; do \
		echo "=== $$example"; \
		$(PYTHON) $$example || exit 1; \
	done

# the paper's published sizes; takes tens of minutes
full-scale: export REPRO_BENCH_SCALE=1
full-scale:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
	$(PYTHON) benchmarks/collect_results.py

clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
