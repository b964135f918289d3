"""Kernel mutants: small faults in the bit-level, sampling and
elimination kernels that the tests they name must catch.

Run as ``python tests/mutants.py``.  Each mutant is a file of
``src/motif_poisson``, an exact text that occurs there once, its
replacement and a test selection.  The script first asserts that every
old text occurs exactly once, so a refactor that moves the code fails
here and the list is updated with it, and that the selections pass on the
tree as it is.  Then, for each mutant, it copies ``src/`` and ``tests/``
to a temporary directory, applies the mutant there and runs the selection
with ``-x -q``: the run must fail.  A known-equivalent mutant must
survive its selection; if it is caught, it was not equivalent, and moves
to the caught list.

The file is not named ``test_*``, so the tier-1 run does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/motif_poisson")


class Mutant(NamedTuple):
    what: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


#: Mutants the named tests catch.
CAUGHT = (
    Mutant(
        "transposes skip round j = 1",
        "bitrows.py",
        "for j in (32, 16, 8, 4, 2, 1)",
        "for j in (32, 16, 8, 4, 2)",
        ("tests/test_models.py::TestBatches::test_checks_agree_on_every_block",),
    ),
    Mutant(
        "transposes swap with the complement mask",
        "bitrows.py",
        "for c in range(64) if not c & j",
        "for c in range(64) if c & j",
        ("tests/test_models.py::TestBatches::test_checks_agree_on_every_block",),
    ),
    Mutant(
        "band start one row late",
        "bitrows.py",
        "return g * n + 64 * lo",
        "return g * n + 64 * lo + 1",
        ("tests/test_models.py::TestBatches::test_fault_in_late_band_listed_from_it",),
    ),
    Mutant(
        "HIGH off by one bit",
        "bitrows.py",
        "(1 << 64) - (2 << b)",
        "(1 << 64) - (1 << b)",
        ("tests/test_counting.py::test_above_window_sets_exactly_the_bits_above",),
    ),
    Mutant(
        "sampled batch handed on without its words",
        "models.py",
        "return Batch(rows, n, graphs, words)",
        "return Batch(rows, n, graphs, None)",
        ("tests/test_models.py::TestBatches::test_batch_words_are_its_own",),
    ),
    Mutant(
        "sparse search starts after the floor image's word",
        "counting.py",
        "lo = np.searchsorted(words.at, first + (x >> 6))",
        'lo = np.searchsorted(words.at, first + (x >> 6), side="right")',
        ("tests/test_counting.py::test_word_boundaries_against_closed_forms",),
    ),
    Mutant(
        "_positions caps each gap at total (stream 2)",
        "models.py",
        "np.minimum(gaps, total + 1, out=gaps)",
        "np.minimum(gaps, total, out=gaps)",
        ("tests/test_models.py::test_small_block_edge_frequency_is_p",),
    ),
    Mutant(
        "array _first_chunk adds 15, not 16",
        "models.py",
        "mean + 4.0 * np.sqrt(mean) + 16.0",
        "mean + 4.0 * np.sqrt(mean) + 15.0",
        ("tests/test_models.py::TestOneCall::test_first_chunk_of_arrays_is_elementwise",),
    ),
    Mutant(
        "non-stable argsort of the class keys",
        "models.py",
        'key.argsort(kind="stable")',
        'key.argsort(kind="heapsort")',
        ("tests/test_models.py::test_sampled_graphs_pinned",),
    ),
    Mutant(
        "_diagonal_pairs takes its root in float32",
        "models.py",
        "np.sqrt(b * b - 8 * k)",
        "np.sqrt((b * b - 8 * k).astype(np.float32))",
        ("tests/test_models.py::TestSkipSampler::test_pair_index_row_boundaries_up_to_the_cap",),
    ),
    Mutant(
        "bits unpacked from the high end of each byte",
        "bitrows.py",
        'return np.unpackbits(octets, axis=-1, bitorder="little")',
        'return np.unpackbits(octets, axis=-1, bitorder="big")',
        ("tests/test_homs.py::test_counts_exact_on_both_sides_of_the_float32_bound",),
    ),
    Mutant(
        "listed bytes read as 7 bits apart",
        "bitrows.py",
        "return byte[bit >> 3] * 8 + (bit & 7)",
        "return byte[bit >> 3] * 7 + (bit & 7)",
        ("tests/test_bitrows.py::test_listings_match_full_unpacking",),
    ),
    Mutant(
        "bytes holding bit 0 alone left out of the listing",
        "bitrows.py",
        "byte = np.flatnonzero(octets != 0)",
        "byte = np.flatnonzero(octets > 1)",
        ("tests/test_bitrows.py::test_listings_match_full_unpacking",),
    ),
    Mutant(
        "set bits listed twice the budget at once",
        "bitrows.py",
        'hi = max(lo + 1, int(ones.searchsorted(done + BLOCK_WORDS, "right")))',
        'hi = max(lo + 1, int(ones.searchsorted(done + 2 * BLOCK_WORDS, "right")))',
        ("tests/test_bitrows.py::test_listings_match_full_unpacking",),
    ),
    Mutant(
        "each window's last word left out of its listing",
        "bitrows.py",
        "yield lo, bit_positions(words[lo:hi])",
        "yield lo, bit_positions(words[lo : hi - 1])",
        ("tests/test_bitrows.py::test_windows_cover_the_words_in_bounded_runs",),
    ),
    Mutant(
        "Möbius coefficient with its sign flipped",
        "homs.py",
        "(-1) ** (s - 1) * math.factorial(s - 1)",
        "(-1) ** s * math.factorial(s - 1)",
        ("tests/test_homs.py::test_products_keep_their_orientation",),
    ),
    Mutant(
        "_plan appends the empty rest after each component",
        "homs.py",
        "+ ([rest] if rest else [])",
        "+ [rest]",
        ("tests/test_homs.py::test_inversion_sum_alone_refuses_two_triangles",),
    ),
    Mutant(
        "_contract passes the weight vector after the taken factors",
        "homs.py",
        "np.einsum(weights, (u,), *(x for f in taken for x in f), out)",
        "np.einsum(*(x for f in taken for x in f), weights, (u,), out)",
        ("tests/test_bounds.py::TestMuSbm::test_mu_bits_pinned",),
    ),
    Mutant(
        "wide step summed over its last axis",
        "homs.py",
        "for row in terms:",
        "for row in np.moveaxis(terms, -1, 0):",
        ("tests/test_homs.py::test_contract_keeps_the_bits_of_one_einsum_a_step",),
    ),
    Mutant(
        "wide step's runs one entry short",
        "homs.py",
        "slice(lo, lo + run))[:lead]",
        "slice(lo, lo + run - 1))[:lead]",
        ("tests/test_homs.py::test_contract_keeps_the_bits_of_one_einsum_a_step",),
    ),
    Mutant(
        "orbit closed without the first kept automorphism",
        "motif.py",
        "for g in kept:",
        "for g in kept[1:]:",
        ("tests/test_motif.py::TestStabiliserOrbits::test_each_search_is_for_a_vertex_not_yet_reached",),
    ),
    Mutant(
        "inversion sum refused only from 2^64",
        "homs.py",
        "for q in quotients) >= 2**63:",
        "for q in quotients) >= 2**64:",
        ("tests/test_homs.py::test_inversion_sum_alone_refuses_two_triangles",),
    ),
    Mutant(
        "relabelling search refused at exactly its cap",
        "homs.py",
        "for c in classes) > _RELABELLINGS:",
        "for c in classes) >= _RELABELLINGS:",
        ("tests/test_homs.py::test_quotients_beyond_the_relabelling_cap_count_alike",),
    ),
)

#: Mutants that change no result: each must survive its selection.
EQUIVALENT = (
    # the margin for float rounding below 2^18, which no composition reaches
    Mutant(
        "_gap_bound without its + (count > 1)",
        "models.py",
        " + (count > 1)",
        "",
        ("tests/test_models.py::TestOneCall",),
    ),
)


def pytest(where: Path, tests) -> int:
    """The exit code of ``pytest -x -q`` over ``tests``, run in ``where``
    against the package in ``where/src``."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=where, env=env, capture_output=True).returncode


def copy(mutant: Mutant | None) -> Path:
    """A temporary copy of ``src/`` and ``tests/``, with ``mutant`` applied."""
    where = Path(tempfile.mkdtemp(prefix="mutant-"))
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, where / part, ignore=skip)
    if mutant is not None:
        path = where / PACKAGE / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
    return where


def main() -> int:
    for m in CAUGHT + EQUIVALENT:
        found = (ROOT / PACKAGE / m.file).read_text().count(m.old)
        assert found == 1, f"{m.what}: {m.old!r} occurs {found} times in {m.file}"
    where = copy(None)
    try:
        probe = "import motif_poisson; print(motif_poisson.__file__)"
        env = dict(os.environ, PYTHONPATH=str(where / "src"))
        out = subprocess.run(
            [sys.executable, "-c", probe], cwd=where, env=env, capture_output=True, text=True
        ).stdout
        assert out.startswith(str(where)), f"the copy does not import its own package: {out}"
        selections = sorted({t for m in CAUGHT + EQUIVALENT for t in m.tests})
        code = pytest(where, selections)
        assert code == 0, f"the selections fail on the tree as it is (exit {code})"
    finally:
        shutil.rmtree(where)
    wrong = []
    for mutant, expected in [(m, 1) for m in CAUGHT] + [(m, 0) for m in EQUIVALENT]:
        start = time.perf_counter()
        where = copy(mutant)
        try:
            code = pytest(where, mutant.tests)
        finally:
            shutil.rmtree(where)
        verdict = {0: "survived", 1: "caught"}.get(code, f"exit {code}")
        print(f"{verdict:>9}  {time.perf_counter() - start:5.1f} s  {mutant.what}", flush=True)
        if code != expected:
            wrong.append(mutant.what)
    if wrong:
        print(f"{len(wrong)} mutant(s) not as listed: {', '.join(wrong)}")
        return 1
    print(f"{len(CAUGHT)} caught, {len(EQUIVALENT)} known equivalent survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
