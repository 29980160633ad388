"""Output checks for the khfront benchmark.

Each op's JSON output is compared with the values its workload computed
independently (see ``workloads``), and with what earlier ops reported for
the same front: ``analyze`` and ``trees`` must give the same census,
``homology``'s graded Euler characteristic must equal ``jones``, and a
front's tb, verdict and min delta must not change between commands or
repetitions.  The corpus command's own ``violations`` field is a constant,
so corpus items are compared with the recorded tb values here.
"""

from __future__ import annotations

from workloads import Case, Op

VERDICTS = {"bound_holds", "sharp_certified", "not_sharp_certified", "inconclusive"}


class Checker:
    def __init__(self, recorded_tb: dict[str, int]):
        self.recorded_tb = recorded_tb
        self.facts: dict[str, dict[str, object]] = {}

    def check(self, op: Op, payload: dict) -> list[str]:
        """Problems with one op's output; empty when it is correct."""
        errors: list[str] = []
        facts: dict[str, object] = {}
        check = getattr(self, "_" + op.command)
        check(op, op.case, payload, errors, facts)
        if op.case is not None:
            seen = self.facts.setdefault(op.case.name, {})
            for key, value in facts.items():
                if key in seen and seen[key] != value:
                    errors.append(f"{key} {value!r} disagrees with earlier {seen[key]!r}")
                seen.setdefault(key, value)
        return [f"{op.command} {op.case.name if op.case else ''}: {e}" for e in errors]

    @staticmethod
    def _expect(errors: list[str], what: str, got, want) -> None:
        if got != want:
            errors.append(f"{what} is {got!r}, expected {want!r}")

    def _bound(self, case: Case, p: dict, errors: list[str], facts: dict) -> None:
        self._expect(errors, "tb", p["tb"], case.tb)
        if p["verdict"] not in VERDICTS:
            errors.append(f"unknown verdict {p['verdict']!r}")
        if case.verdict is not None:
            self._expect(errors, "verdict", p["verdict"], case.verdict)
        md = p["min_delta"]
        if md is not None:
            if md < p["tb"]:
                errors.append(f"tb {p['tb']} exceeds min delta {md}")
            if p["verdict"] == "sharp_certified" and md != p["tb"]:
                errors.append("sharp verdict but tb < min delta")
            if p["verdict"] == "not_sharp_certified" and md == p["tb"]:
                errors.append("strict verdict but tb = min delta")
            facts["min_delta"] = md
        facts["tb"] = p["tb"]
        facts["verdict"] = p["verdict"]

    def _analyze(self, op, case, p, errors, facts):
        self._bound(case, p, errors, facts)
        self._expect(errors, "cusp_pairs", p["cusp_pairs"], case.cusp_pairs)
        self._expect(errors, "tree_count", p["tree_count"], case.trees)
        if "--oracle" in op.argv and p["min_delta"] is None:
            errors.append("oracle requested but min_delta missing")
        census = {int(v): (c["good"], c["bad"]) for v, c in p["census"].items()}
        if sum(g + b for g, b in census.values()) > case.trees:
            errors.append("census counts more trees than exist")
        facts["census"] = census

    def _certify(self, op, case, p, errors, facts):
        self._bound(case, p, errors, facts)

    def _trees(self, op, case, p, errors, facts):
        records = p["trees"]
        self._expect(errors, "tree records", len(records), case.trees)
        edge_sets = {tuple(r["edges"]) for r in records}
        if len(edge_sets) != len(records):
            errors.append("duplicate spanning trees")
        if case.tree_edges is not None:
            sizes = {len(e) for e in edge_sets}
            if sizes - {case.tree_edges}:
                errors.append(f"tree sizes {sorted(sizes)}, expected {case.tree_edges}")
        census: dict[int, tuple[int, int]] = {}
        for r in records:
            g, b = census.get(r["v"], (0, 0))
            census[r["v"]] = (g + (r["class"] == "good"), b + (r["class"] == "bad"))
        facts["census"] = census

    def _homology(self, op, case, p, errors, facts):
        groups = p["groups"]
        if not groups:
            errors.append("empty homology")
            return
        md = min(g["j"] - g["i"] for g in groups)
        self._expect(errors, "min_delta", p["min_delta"], md)
        if md < case.tb:
            errors.append(f"tb {case.tb} exceeds homology min delta {md}")
        euler: dict[int, int] = {}
        for g in groups:
            euler[g["j"]] = euler.get(g["j"], 0) + (-1) ** (g["i"] % 2) * g["rank"]
        facts["min_delta"] = md
        facts["euler"] = {j: c for j, c in euler.items() if c}

    def _jones(self, op, case, p, errors, facts):
        terms = {e: c for e, c in p["terms"]}
        if case.jones is not None:
            self._expect(errors, "Jones polynomial", terms, case.jones)
        facts["euler"] = terms

    def _corpus(self, op, case, p, errors, facts):
        items = {item["name"]: item for item in p["items"]}
        self._expect(errors, "corpus entries", sorted(items), sorted(self.recorded_tb))
        mismatches = 0
        for name, item in items.items():
            want = self.recorded_tb.get(name)
            md = item["min_delta"]
            if item["tb"] != want or md is None or md < item["tb"]:
                mismatches += 1
                errors.append(f"{name}: tb {item['tb']} (recorded {want}), min delta {md}")
        if mismatches:
            errors.append(f"{mismatches} corpus violations; the command reported {p['violations']}")
