"""The two workloads: seeded inputs, the in-process pass, and output checks.

Every check compares fgkit's output with an answer from ``reference.py``
(or from the frozen ``reference_data.json`` it produced); no check calls
back into fgkit.  Checks return one failure message per failed operation.
The timed part of the in-process workload (``large_genus_run``) is kept
apart from its check (``large_genus_check``), which runs after the clock
stops.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import reference as ref

WORKLOADS = ("sweep-serial", "large-genus")

SWEEP_G = (2, 4, 6, 8)
SWEEP_L = tuple(range(3, 13))
LARGE_G = (32, 64)
LARGE_L = 12

DATA_PATH = Path(__file__).with_name("reference_data.json")
# frozen answers; absent only before make_reference.py first writes them
REFERENCE = json.loads(DATA_PATH.read_text(encoding="utf-8")) if DATA_PATH.exists() else {}


def instances(workload: str) -> list[tuple[int, int]]:
    """The (g, l) instances of one pass; each is one operation."""
    if workload == "sweep-serial":
        return [(g, l) for g in SWEEP_G for l in SWEEP_L]
    return [(g, LARGE_L) for g in LARGE_G]


def _check_instance(g: int, l: int, got: dict) -> list[str]:
    """Compare one instance's outputs with the frozen reference answers."""
    want = REFERENCE["instances"][f"{g},{l}"]
    return [
        f"g={g} l={l}: {key} = {value!r}, expected {want[key]!r}"
        for key, value in got.items()
        if value != want[key]
    ]


# -- sweep-serial -----------------------------------------------------------


def sweep_argv(seed: int) -> list[str]:
    """CLI arguments for one sweep; the seed only orders the l list."""
    ls = list(SWEEP_L)
    random.Random(seed).shuffle(ls)
    return [
        "sweep", "--no-timings", "--format", "json",
        "--g-list", ",".join(map(str, SWEEP_G)),
        "--l-list", ",".join(map(str, ls)),
    ]


def check_sweep(returncode: int, stdout: str, stderr: str) -> list[str]:
    """Failure messages for the sweep's output, at most one per grid point.

    The quotient-order WARNING lines on stderr are expected; a traceback is
    not.
    """
    points = instances("sweep-serial")
    if returncode != 0 or "Traceback" in stderr:
        return [f"exit {returncode}: {stderr.strip().splitlines()[-1:]}"] * len(points)
    try:
        out = json.loads(stdout)
        reports = {(r["params"]["g"], r["params"]["l"]): r for r in out["reports"]}
        rows = {row["g"]: row for row in out["distinctness"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable sweep output: {exc!r}"] * len(points)
    failures = []
    for g, l in points:
        r = reports.get((g, l))
        row = rows.get(g)
        if r is None or row is None:
            failures.append(f"g={g} l={l}: missing from output")
            continue
        if not (row["distinct_unoriented"] and row["distinct_oriented"] and row["all_nontrivial"]):
            failures.append(f"g={g}: distinctness row {row}")
            continue
        got = {
            "injective": r["injective"],
            "image_rank": r["image_rank"],
            "quotient_order": r["quotient_order"],
            "shuffle_identities_ok": r["shuffle_identities_ok"],
            "hard_pass": r["hard_pass"],
            "class_sha256": ref.digest(ref.parse(r["boundary_class"])),
            "class_oriented_sha256": ref.digest(ref.parse(r["boundary_class_oriented"])),
        }
        failures += _check_instance(g, l, got)[:1]
    return failures


# -- large-genus ------------------------------------------------------------


def large_genus_run(fgkit, seed: int, set_op) -> list:
    """Every public verify stage except the block-letter check, per instance.

    Returns the outputs.  ``set_op`` names the operation that the following
    calls belong to.
    """
    family, homs, words = fgkit.family, fgkit.homs, fgkit.words
    stallings, abelian = fgkit.stallings, fgkit.abelian
    todo = instances("large-genus")
    random.Random(seed).shuffle(todo)
    outputs = []
    for g, l in todo:
        set_op(f"g{g}-l{l}")
        params = family.FamilyParams(g, l)
        rec = family.generator_images_recursive(params)
        closed = family.generator_images_closed(params)
        shuffle_ok = family.check_shuffle_identities(g, g, l)
        hom = homs.Homomorphism(family.domain_alphabet(g), family.target_alphabet(), rec)
        inj = stallings.is_injective(hom)
        order = abelian.quotient_order(abelian.image_matrix(hom), 3)
        image = hom.apply(family.boundary_word(g))
        unoriented = words.canonical_class(image, oriented=False)
        oriented = words.canonical_class(image, oriented=True)
        outputs.append((g, l, rec, closed, shuffle_ok, inj, order, image, unoriented, oriented))
    set_op(None)
    return outputs


def large_genus_check(outputs) -> list[str]:
    failures = []
    for g, l, rec, closed, shuffle_ok, inj, order, image, unoriented, oriented in outputs:
        got = {
            "injective": inj.verdict,
            "image_rank": inj.image_rank,
            "quotient_order": order,
            "shuffle_identities_ok": shuffle_ok,
            "images_sha256": ref.digest_words([w.letters for w in rec]),
            "closed_images_sha256": ref.digest_words([w.letters for w in closed]),
            "boundary_image_letters": len(image.letters),
            "class_sha256": ref.digest(unoriented.letters),
            "class_oriented_sha256": ref.digest(oriented.letters),
        }
        failures += _check_instance(g, l, got)[:1]
    return failures
