"""Record the replayed table rows that the replay and cli checks compare with.

    python3 bench/make_expected.py

Writes bench/expected_tables.json from the package under src: per table, one
[provenance, lambda, n, pass, disputed, computed] list per report row.  Run it
only when a change to the tables is intended and reviewed.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from gha.tables import run_table  # noqa: E402


def main():
    lines = []
    for table_id in (1, 2, 3, 4):
        rows = [json.dumps([r.provenance, r.lam, r.n, r.passed, r.disputed, r.computed])
                for r in run_table(table_id, threads=1).rows]
        lines.append(f'"{table_id}": [\n' + ",\n".join(rows) + "\n]")
    (BENCH / "expected_tables.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
