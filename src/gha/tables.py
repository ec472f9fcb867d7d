"""Regression harness for the published benchmark tables.

Reference data is embedded at its printed precision, each cell tagged with
its provenance:

  GHA           zeroth-order variational energies,
  HIPT          second-order perturbative corrections on the Hartree basis,
  EXTERNAL_REF  values quoted from earlier calculations (parenthesised in
                the original tables).

GHA and HIPT cells are recomputed with this package; EXTERNAL_REF cells are
checked against the banded-basis diagonalizer instead, since they do not
come from the approximation being tested.  Reporting conventions:

  table 1  quartic AHO, direct E(g=1, λ)
  table 2  quartic DWO, reported = E_raw + g²/(16λ) with g = −1
  table 3  sextic AHO, reported = 2·E(g=1, λ=β/2)
  table 4  octic AHO,  reported = 2·E(g=1, λ)

The doubling in tables 3 and 4 was pinned by numerical reproduction at
several (coupling, level) points; the quoted-source normalization is never
stated alongside the data.  A handful of printed cells are internally
inconsistent (digit slips); these are marked disputed: they are computed and
reported but never fail a run.  The sextic table's bracketed percent rows
are recomputed from the energy rows rather than trusted as printed.

`run_table` recomputes one table serially, cell by cell in the embedded
order, from a plan of plain tuples built on the table's first run;
`gha table N --compare` renders its report through the same output path as
every other subcommand.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

from .errors import DomainError, _index, _shown
from .hartree import OscillatorModel, classical_well_depth, solve_level
from .hipt import second_order
from .oracle import converged_levels

_ORACLE_TOL = 1e-7

GHA_TOL = {1: 5e-4, 2: 2e-3, 3: 5e-4, 4: 5e-4}
HIPT_TOL = {1: 2e-3, 2: 2e-3}
EXTERNAL_TOL = 2e-3


class Provenance(str, Enum):
    GHA = "GHA"
    HIPT = "HIPT"
    EXTERNAL_REF = "EXTERNAL_REF"


@dataclass(frozen=True)
class ReferenceCell:
    lam: float  # printed coupling column (β for the sextic table)
    n: int
    text: str  # value exactly as printed
    provenance: Provenance
    disputed: bool = False
    note: str = ""

    @property
    def reference(self) -> float:
        return float(self.text)


@dataclass(frozen=True)
class PercentCell:
    """Bracketed percent-error entry of the sextic table, kept as printed."""

    lam: float
    n: int
    text: str

    @property
    def reference(self) -> float:
        return float(self.text)


@dataclass(frozen=True)
class ReferenceTable:
    table_id: int
    power: int
    g: float
    convention: str  # "direct" | "shifted" | "doubled"
    cells: Tuple[ReferenceCell, ...]
    percent_cells: Tuple[PercentCell, ...] = ()


@dataclass(frozen=True)
class ComparisonRow:
    lam: float
    n: int
    provenance: str
    computed: float
    reference: float
    rel_error: float
    passed: bool
    disputed: bool


@dataclass(frozen=True)
class ComparisonReport:
    table_id: int
    rows: Tuple[ComparisonRow, ...]
    max_rel_error: float  # over non-disputed rows
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def summary(self) -> Dict[str, object]:
        return {
            "max_rel_error": self.max_rel_error,
            "failures": self.failures,
            "cells": len(self.rows),
            "disputed": sum(1 for r in self.rows if r.disputed),
        }


# Printed cells known to be inconsistent (compared, reported, never fail a
# run).  GHA/HIPT disputes are against the method's own closed-form
# identities; EXTERNAL_REF disputes are adjudicated by the banded-basis
# diagonalizer.  Acceptance criterion 7 (tests/test_acceptance.py) cross-
# checks that diagonalizer against a dense 600-state diagonalization built
# from numpy matrices without gha.ladder, at all 40 quoted cells of table 1
# (λ ≤ 100, n ≤ 10) and table 2; criteria 2, 4 and 7 require the cells
# beyond tolerance to be exactly the disputed ones.
_DISPUTED = {
    (1, Provenance.GHA, 0.1, 10):
        "printed 17.2267 disagrees with the gap solution 17.26586; presumed digit slip",
    (1, Provenance.EXTERNAL_REF, 0.1, 40):
        "printed (90.56) is inconsistent with the neighbouring quoted values; "
        "the converged spectrum sits near 95.7",
    (1, Provenance.EXTERNAL_REF, 1.0, 4):
        "printed (10.902) duplicates the zeroth-order entry above it; "
        "the converged spectrum gives 10.9636",
    (2, Provenance.GHA, 1.0, 10):
        "printed 30.530 does not satisfy the gap/energy identities (30.0888) "
        "and instead coincides with the second-order value 30.5319",
    (2, Provenance.HIPT, 1.0, 10):
        "printed 30.650 matches neither the zeroth-order (30.0888) nor the "
        "second-order (30.5319) recomputation; presumed slip",
    (2, Provenance.EXTERNAL_REF, 0.1, 1):
        "converged spectrum gives 0.76776 (3.3e-3 away)",
    (2, Provenance.EXTERNAL_REF, 0.1, 2):
        "converged spectrum gives 1.63519 (3.2e-3 away)",
    (2, Provenance.EXTERNAL_REF, 0.1, 10):
        "converged spectrum gives 12.43034 (2.4e-3 away)",
    (2, Provenance.EXTERNAL_REF, 1.0, 0):
        "converged spectrum gives 0.57728 (4.7e-3 away)",
    (2, Provenance.EXTERNAL_REF, 1.0, 1):
        "converged spectrum gives 2.08305; printed 2.1800 is 4.4e-2 away, "
        "presumed slip for 2.0800",
    (2, Provenance.EXTERNAL_REF, 10.0, 1):
        "converged spectrum gives 4.99567; printed 5.0900 is 1.9e-2 away, "
        "presumed slip for 4.9900",
    (2, Provenance.EXTERNAL_REF, 100.0, 1):
        "converged spectrum gives 11.03371 (2.9e-3 away)",
    (2, Provenance.EXTERNAL_REF, 100.0, 4):
        "converged spectrum gives 47.39292 (4.1e-3 away)",
    (4, Provenance.GHA, 1.0, 6):
        "printed 52.669 vs gap solution 52.699; presumed 6/9 transposition",
    (4, Provenance.GHA, 0.1, 11):
        "printed 824.24 breaks the monotone column; the gap solution gives 82.424",
}
# the quoted sextic source degrades at the top of the table: every n = 17
# entry sits ~0.5% below the converged spectrum while rows n <= 14 agree
_DISPUTED.update({
    (3, Provenance.EXTERNAL_REF, beta, 17):
        "quoted value is ~0.5% below the converged spectrum; the doubling "
        "convention is confirmed by rows n <= 14"
    for beta in (0.2, 2.0, 10.0, 100.0, 400.0, 2000.0)
})

_T1_NS = (0, 1, 2, 4, 10, 40)
# per λ block: GHA row, quoted row, HIPT row (None marks a blank entry)
_T1 = (
    (0.1,
     ("0.56031", "1.7734", "3.1382", "6.2052", "17.2267", "94.84"),
     ("0.55915", "1.7695", "3.1386", "6.2203", "17.352", "90.56"),
     ("0.55911", "1.7694", "3.1391", "6.2239", "17.374", "95.766")),
    (1.0,
     ("0.81250", "2.7599", "5.1724", "10.902", "32.663", "192.79"),
     ("0.80377", "2.7379", "5.1792", "10.902", "32.963", "194.60"),
     ("0.80321", "2.7367", "5.1824", "10.982", "33.013", "195.15")),
    (10.0,
     ("1.5313", "5.3821", "10.3240", "22.248", "68.177", "409.89"),
     ("1.5050", "5.3216", "10.3471", "22.409", "68.804", "413.94"),
     ("1.5030", "5.3177", "10.356", "22.457", "68.996", "415.18")),
    (100.0,
     ("3.1924", "11.325", "21.853", "47.349", "145.843", "880.55"),
     ("3.1314", "11.187", "21.907", "47.707", "147.231", "889.32"),
     ("3.1266", "11.178", "21.927", "47.817", "147.652", "892.03")),
    (1000.0,
     ("6.8280", "24.272", "46.902", "101.742", "313.720", "1895.90"),
     ("6.6942", "23.972", "47.017", "102.516", None, None),
     ("6.6836", "23.952", "47.062", "102.75", "317.65", "1920.70")),
)

# (λ, n, GHA, HIPT, quoted)
_T2 = (
    (0.1, 0, "0.5496", "0.4606", "0.4702"),
    (0.1, 1, "0.8430", "0.7553", "0.7703"),
    (0.1, 2, "1.5636", "1.6547", "1.6300"),
    (0.1, 4, "3.5805", "3.7232", "3.6802"),
    (0.1, 10, "12.192", "12.517", "12.400"),
    (1.0, 0, "0.5989", "0.5752", "0.5800"),
    (1.0, 1, "2.1250", "2.0800", "2.1800"),
    (1.0, 2, "4.2324", "4.2600", "4.2500"),
    (1.0, 4, "9.4680", "9.5950", "9.5600"),
    (1.0, 10, "30.530", "30.650", "30.420"),
    (10.0, 0, "1.4098", "1.3752", "1.3800"),
    (10.0, 1, "5.0650", "4.9910", "5.0900"),
    (10.0, 2, "9.8660", "9.9050", "9.8900"),
    (10.0, 4, "21.561", "21.791", "21.700"),
    (10.0, 10, "66.950", "67.820", "67.620"),
    (100.0, 0, "3.1340", "3.0650", "3.0700"),
    (100.0, 1, "11.175", "11.024", "11.002"),
    (100.0, 2, "21.638", "21.715", "21.700"),
    (100.0, 4, "47.023", "47.505", "47.200"),
    (100.0, 10, "145.27", "147.10", "146.70"),
)

_T3_BETAS = (0.2, 2.0, 10.0, 100.0, 400.0, 2000.0)
# per level: GHA row, quoted row, printed percent row
_T3 = (
    (0,
     ("1.193", "1.676", "2.323", "3.947", "5.521", "8.206"),
     ("1.174", "1.610", "2.206", "3.717", "5.188", "7.702"),
     ("1.611", "4.079", "5.313", "6.188", "6.415", "6.544")),
    (1,
     ("3.966", "5.931", "8.420", "14.52", "20.39", "30.37"),
     ("3.901", "5.749", "8.115", "13.95", "19.56", "29.12"),
     ("1.681", "3.165", "3.762", "4.148", "4.244", "4.298")),
    (2,
     ("7.420", "11.61", "16.74", "29.16", "41.03", "61.18"),
     ("7.382", "11.54", "16.64", "28.98", "40.78", "60.81"),
     ("0.523", "0.612", "0.6179", "0.6157", "0.6145", "0.6138")),
    (4,
     ("16.15", "26.48", "38.73", "68.01", "95.90", "143.2"),
     ("16.30", "26.83", "39.29", "69.05", "97.38", "145.4"),
     ("0.9170", "1.302", "1.426", "1.499", "1.517", "1.527")),
    (6,
     ("26.88", "45.08", "66.36", "117.0", "165.1", "246.5"),
     ("27.29", "45.94", "67.70", "119.4", "168.5", "251.7"),
     ("1.50", "1.870", "1.98", "2.043", "2.058", "2.067")),
    (10,
     ("53.24", "91.17", "135.0", "238.7", "337.1", "503.8"),
     ("54.31", "93.26", "138.2", "244.5", "345.3", "516.1"),
     ("1.967", "2.245", "2.323", "2.367", "2.377", "2.383")),
    (14,
     ("85.01", "147.0", "218.3", "386.6", "546.2", "816.3"),
     ("86.78", "150.4", "223.4", "395.7", "559.1", "835.6"),
     ("2.047", "2.230", "2.279", "2.306", "2.313", "2.316")),
    (17,
     ("111.9", "194.4", "289.0", "512.1", "723.7", "1082.0"),
     ("114.0", "198.3", "294.9", "522.7", "738.6", "1104.0"),
     ("1.868", "1.974", "2.001", "2.016", "2.020", "2.022")),
)

_T4_LAMBDAS = (0.1, 1.0, 5.0, 50.0, 200.0)
# per level: GHA row, quoted row
_T4 = (
    (0,
     ("1.3005", "1.7794", "2.3290", "3.5565", "4.6425"),
     ("1.2410", "1.6413", "2.1145", "3.1886", "4.1461")),
    (1,
     ("4.4717", "6.3946", "8.5167", "13.172", "17.259"),
     ("4.2754", "5.9996", "7.9296", "12.1950", "15.9519")),
    (2,
     ("8.6264", "12.717", "17.126", "26.698", "35.062"),
     ("8.4530", "12.421", "16.711", "26.033", "34.183")),
    (4,
     ("19.763", "30.026", "40.863", "64.165", "84.444"),
     ("19.9930", "30.4605", "41.4947", "65.20180", "85.8251")),
    (6,
     ("34.217", "52.669", "72.044", "113.48", "149.47"),
     ("35.0560", "54.1403", "74.0830", "116.7629", "153.8278")),
    (8,
     ("51.570", "80.013", "109.65", "172.99", "227.97"),
     ("53.145590", "82.6496", "113.3486", "178.9215", "235.8193")),
    (9,
     ("61.239", "95.255", "130.64", "206.23", "271.81"),
     ("63.2253", "98.5529", "135.2598", "213.6157", "281.5864")),
    (10,
     ("71.532", "111.49", "153.01", "241.64", "318.52"),
     ("73.9545", "115.4899", "158.5991", "250.5751", "330.3433")),
    (11,
     ("824.24", "128.68", "176.69", "279.14", "368.00"),
     ("85.3079", "133.4201", "183.3103", "289.7106", "381.9720")),
    (12,
     ("93.893", "146.79", "201.65", "318.67", "420.14"),
     ("97.2636", "152.3080", "209.3443", "330.9440", "436.3695")),
    (13,
     ("105.92", "165.79", "227.84", "360.14", "474.85"),
     ("109.7967", "172.1125", "236.6436", "374.1834", "493.4143")),
    (14,
     ("118.49", "185.65", "255.21", "403.50", "532.06"),
     ("122.8909", "192.8082", "265.1732", "419.3737", "553.0335")),
)


def _cell(table_id, lam, n, text, provenance):
    note = _DISPUTED.get((table_id, provenance, lam, n))
    return ReferenceCell(lam=lam, n=n, text=text, provenance=provenance,
                         disputed=note is not None, note=note or "")


def _grid(table_id, axis, blocks, provenances, by_coupling):
    """A printed grid's cells in printed order: each block holds its key (the
    coupling if by_coupling, else the level), then one row per provenance."""
    return tuple(
        _cell(table_id, *((key, x) if by_coupling else (x, key)), text, provenance)
        for key, *rows in blocks
        for provenance, row in zip(provenances, rows)
        for x, text in zip(axis, row) if text is not None)


@functools.cache
def _build_tables():
    gha, hipt, quoted = Provenance.GHA, Provenance.HIPT, Provenance.EXTERNAL_REF
    t2 = tuple(_cell(2, lam, n, text, provenance) for lam, n, *texts in _T2
               for provenance, text in zip((gha, hipt, quoted), texts))
    t3_pct = tuple(PercentCell(lam=beta, n=n, text=text) for n, _, _, pct in _T3
                   for beta, text in zip(_T3_BETAS, pct))
    return {
        1: ReferenceTable(1, 4, 1.0, "direct",
                          _grid(1, _T1_NS, _T1, (gha, quoted, hipt), True)),
        2: ReferenceTable(2, 4, -1.0, "shifted", t2),
        3: ReferenceTable(3, 6, 1.0, "doubled",
                          _grid(3, _T3_BETAS, _T3, (gha, quoted), False), t3_pct),
        4: ReferenceTable(4, 8, 1.0, "doubled",
                          _grid(4, _T4_LAMBDAS, _T4, (gha, quoted), False)),
    }


def reference_table(table_id: int) -> ReferenceTable:
    """The embedded table `table_id`; all four are built on the first call."""
    _index(table_id, "reference table id must be an integer in 1..4", 1, 4)
    return _build_tables()[table_id]


# typed, so that a float id misses the entry of the equal int and is refused
@functools.lru_cache(maxsize=None, typed=True)
def _plan(table_id: int):
    """The replay plan of one table, built on its first `run_table`: its
    power, g and report scale, then plain tuples that a run reads in order.
    A reported value is scale·E_raw + shift (see the module docstring).

    columns: (model λ, shift, top quoted level or None) per printed coupling,
      in order of first appearance;
    cells: (column, λ, n, provenance, reference, disputed) per cell;
    percents: (λ, n, index of the GHA row, quoted value, printed percent).
    """
    table = reference_table(table_id)
    index = {}
    for c in table.cells:
        index.setdefault(c.lam, len(index))
    columns = []
    for lam in index:
        # the sextic table prints β = 2λ
        coupling = lam / 2.0 if table_id == 3 else lam
        shift = (classical_well_depth(OscillatorModel(table.power, table.g, coupling))
                 if table.convention == "shifted" else 0.0)
        top = max((c.n for c in table.cells
                   if c.lam == lam and c.provenance is Provenance.EXTERNAL_REF), default=None)
        columns.append((coupling, shift, top))
    cells = tuple((index[c.lam], c.lam, c.n, c.provenance.value, c.reference, c.disputed)
                  for c in table.cells)
    row = {(lam, n, provenance): i for i, (_, lam, n, provenance, _, _) in enumerate(cells)}
    percents = tuple((p.lam, p.n, row[p.lam, p.n, "GHA"],
                      cells[row[p.lam, p.n, "EXTERNAL_REF"]][4], p.reference)
                     for p in table.percent_cells)
    scale = 2.0 if table.convention == "doubled" else 1.0
    return table.power, table.g, scale, tuple(columns), cells, percents


def run_table(table_id: int, threads: Optional[int] = None) -> ComparisonReport:
    """Recompute one benchmark table and compare against its printed values.

    The run is one pass over the table's plan (`_plan`), cell by cell in the
    embedded order, and builds each row where its value is computed.  It
    makes a fresh model per coupling column, so each level is solved once
    per run, and its oracle spectrum once, on first use, up to the column's
    largest quoted level.  The percent rows come last and read the GHA rows
    and quoted values already in place.  A row that is not disputed passes
    within the fixed tolerance of its provenance: the table's `GHA_TOL`,
    `HIPT_TOL` or `EXTERNAL_TOL`.  `threads` accepts only None or 1; it
    stays while bench/make_expected.py passes threads=1 and goes at the next
    change to the benchmark.
    """
    power, g, scale, columns, cells, percents = _plan(table_id)
    if threads not in (None, 1):
        raise DomainError(f"tables are computed serially; threads must be 1, got {_shown(threads)}")
    tols = {"GHA": GHA_TOL[table_id], "HIPT": HIPT_TOL.get(table_id, 2e-3),
            "EXTERNAL_REF": EXTERNAL_TOL}

    models = [OscillatorModel(power, g, lam) for lam, _, _ in columns]
    spectra = {}
    rows, live, failures = [], [], 0
    for column, lam, n, provenance, reference, disputed in cells:
        model = models[column]
        if provenance == "GHA":
            raw = solve_level(model, n).energy
        elif provenance == "HIPT":
            raw = second_order(model, n).e2
        else:
            spectrum = spectra.get(column)
            if spectrum is None:
                spectrum = spectra[column] = converged_levels(
                    model, columns[column][2], tol=_ORACLE_TOL).levels
            raw = spectrum[n]
        value = scale * raw + columns[column][1]
        rel = abs(value - reference) / abs(reference)
        passed = not disputed and rel <= tols[provenance]
        if not disputed:
            live.append(rel)
            failures += not passed
        rows.append(ComparisonRow(lam, n, provenance, value, reference, rel, passed, disputed))
    for lam, n, gha_row, quoted, printed in percents:
        value = 100.0 * abs(rows[gha_row].computed - quoted) / abs(quoted)
        rows.append(ComparisonRow(lam, n, "PERCENT", value, printed,
                                  abs(value - printed) / abs(printed), False, True))
    return ComparisonReport(table_id, tuple(rows), max(live, default=0.0), failures)
