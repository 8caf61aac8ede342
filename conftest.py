"""Repository-wide pytest options.

Defined at the root so that they are known to every invocation, whether it
names ``tests/``, ``benchmarks/`` or nothing at all.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--record-results",
        action="store_true",
        default=False,
        help="write benchmark tables and BENCH_*.json records to benchmarks/results/",
    )
