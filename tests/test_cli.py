"""CLI commands, output formats, exit codes, and the demo scripts."""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from khfront import (
    generator_ij,
    labelled_trees,
    parse_front,
    tait_graph,
)
from khfront.cli import (
    EXIT_CONVENTION,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    _parser,
    main,
)
from khfront.front import EVENT_LIMIT
from khfront.oracle import JONES_STATE_LIMIT
from khfront.trees import LISTING_LIMIT, PRETTY

from conftest import front_words, run_optimized, run_python

TREFOIL = "L1 L2 X1 X1 X1 R2 R1"
HOPF = "L1 L2 X1 X1 R2 R1"
#: the names of the two colorings, and ``tait_graph``'s ``reverse`` for each
COLORINGS = (("canonical", False), ("reversed", True))
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def wheel_tree_count(spokes: int) -> int:
    """Spanning trees of the wheel with n spokes, the canonical Tait graph
    of the closure of (X1 X2)^n: L(2n) - 2 for the Lucas numbers, by
    L(2k) = 3 L(2k - 2) - L(2k - 4)."""
    lower, upper = 2, 3  # L(0), L(2)
    for _ in range(spokes - 1):
        lower, upper = upper, 3 * upper - lower
    return upper - 2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_json_dict(rec) -> dict:
    """A spanning-tree record as a JSON object without its coloring and
    generators: the reference that the ``trees --json`` writer is checked
    against."""
    return {
        "edges": sorted(rec.tree),
        "labels": {str(e): PRETTY[lab] for e, lab in sorted(rec.labels.items())},
        "u": rec.u,
        "v": rec.v,
        "class": rec.class_,
    }


class TestAnalyze:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "analyze", TREFOIL, "--oracle")
        assert code == EXIT_OK
        assert "tb           = 1" in out
        assert "sharp_certified" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "analyze", TREFOIL, "--oracle", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["tb"] == 1
        assert payload["min_delta"] == 1
        assert payload["verdict"] == "sharp_certified"

    def test_thousand_crossing_twist(self, capsys):
        # the tree pass keeps no recursion depth per edge
        word = "L1 L2 " + "X1 " * 1001 + "R2 R1"
        code, out, err = run(capsys, "analyze", word, "--json")
        assert code == EXIT_OK, err
        assert json.loads(out)["tree_count"] == 1001

    def test_kink_chain_just_under_the_event_limit(self, capsys):
        # 16,000 kinks are 48,002 events.  Sweep, faces, coloring, Tait
        # graph and census are each linear in them (about 0.3 s in all on
        # a 2-core x86 box); a step quadratic in the crossings would take
        # minutes
        word = "L1 " + "L2 X1 R2 " * 16000 + "R1"
        assert len(word.split()) == 48_002 < EVENT_LIMIT
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", word, "--json")
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert (payload["tb"], payload["verdict"]) == (-1, "sharp_certified")
        assert elapsed < 10

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "analyze", TREFOIL, "--json")
        _, out2, _ = run(capsys, "analyze", TREFOIL, "--json")
        assert out1 == out2


class TestTrees:
    def test_three_records(self, capsys):
        code, out, _ = run(capsys, "trees", TREFOIL, "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["trees"]) == 3
        labels = {
            "".join(t["labels"][k] for k in sorted(t["labels"]))
            for t in payload["trees"]
        }
        assert labels == {"LLd", "LdD", "lDD"}

    def test_text_builds_no_json(self, capsys, monkeypatch):
        import khfront.cli

        def refuse(*args):
            raise AssertionError("JSON built for a text run")

        monkeypatch.setattr(khfront.cli, "_trees_json", refuse)
        code, out, err = run(capsys, "trees", TREFOIL, "--coloring", "both")
        assert code == EXIT_OK, err
        assert out.count("[canonical]") == 3 and out.count("[reversed]") == 3

    def test_a_listed_non_tree_is_a_convention_tripwire(self, capsys, monkeypatch):
        # every edge coded as a loop: a listing of edge sets with no tree
        # edge, which the spanning check refuses
        import khfront.trees

        monkeypatch.setattr(
            khfront.trees, "_tree_codes", lambda g: [bytes([4]) * len(g.edges)]
        )
        code, out, err = run(capsys, "trees", TREFOIL)
        assert (code, out) == (EXIT_CONVENTION, "")
        assert err == "convention tripwire: 0 edges for 3 vertices\n"

    def test_a_listed_non_tree_is_refused_under_optimize(self):
        # the spanning check on the listing the command writes from must
        # raise on its own, since -O strips asserts
        code = (
            "import khfront.trees\n"
            "from khfront.cli import main\n"
            "khfront.trees._tree_codes = lambda g: [bytes([4]) * len(g.edges)]\n"
            f"raise SystemExit(main(['trees', {TREFOIL!r}]))\n"
        )
        proc = run_optimized("-c", code, timeout=60)
        assert (proc.returncode, proc.stdout) == (EXIT_CONVENTION, ""), proc.stderr
        assert proc.stderr == "convention tripwire: 0 edges for 3 vertices\n"

    def test_fifteen_hundred_bridges(self, capsys):
        # the canonical graph of this kink chain is a star of 1,500
        # bridges, the reversed one a vertex with 1,500 loops; the sweep
        # labels each bridge by its rule, in time linear in the bridges
        # (about 27 ms on a 2-core x86 box)
        word = "L1 " + "L3 X2 R3 " * 1500 + "R1"
        start = time.perf_counter()
        code, out, err = run(capsys, "trees", word, "--json", "--coloring", "both")
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK, err
        rows = json.loads(out)["trees"]
        assert [row["coloring"] for row in rows] == ["canonical", "reversed"]
        assert rows[0]["edges"] == list(range(1500)) and rows[1]["edges"] == []
        assert set(rows[0]["labels"].values()) == {PRETTY["Lb"]}
        assert set(rows[1]["labels"].values()) == {PRETTY["l"]}
        assert elapsed < 1

    @pytest.mark.parametrize("flags", [["--json"], []])
    def test_builds_no_record(self, capsys, monkeypatch, flags):
        # both writers read the listed label codes, not records
        import khfront.trees

        def refuse(*args):
            raise AssertionError("a record built for the trees command")

        monkeypatch.setattr(khfront.trees, "_record", refuse)
        code, out, err = run(capsys, "trees", TREFOIL, "--coloring", "both", *flags)
        assert code == EXIT_OK, err
        assert out.count("canonical") == 3 and out.count("reversed") == 3

    @settings(max_examples=60, deadline=None)
    @given(front_words(max_crossings=12))
    @example(parse_front("L1 R1"))
    @example(parse_front("L1 " + "L2 X1 X1 X1 R2 " * 4 + "R1"))
    def test_text_equals_the_lines_of_the_records(self, front):
        # the text writer reads label codes; the reference formats the
        # records.  L1 R1 has no crossing, so no edges and no labels
        d = front.desingularize()
        w = d.writhe()
        lines = [
            f"[{name}] "
            f"edges={sorted(rec.tree)} labels="
            + "".join(PRETTY[rec.labels[k]] for k in sorted(rec.labels))
            + f" u={rec.u} v={rec.v} class={rec.class_} "
            f"generators={generator_ij(rec.u, rec.v, d.n, w)}"
            for name, reverse in COLORINGS
            for rec in labelled_trees(tait_graph(front, reverse), front)
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["trees", "--coloring", "both", front.word()]) == EXIT_OK
        assert buf.getvalue() == "\n".join(lines) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(front_words(max_crossings=12))
    @example(parse_front("L1 " + "L2 X1 X1 X1 R2 " * 4 + "R1"))
    def test_json_equals_json_dumps_of_the_records(self, front):
        # the writer must match json.dumps on every front; the 12-crossing
        # example has the key order of 11 or more labels ("10" < "2") and
        # barred labels
        d = front.desingularize()
        w = d.writhe()
        payload = {"schema": 1, "trees": [
            {
                "coloring": name,
                **record_json_dict(rec),
                "generators": list(generator_ij(rec.u, rec.v, d.n, w)),
            }
            for name, reverse in COLORINGS
            for rec in labelled_trees(tait_graph(front, reverse), front)
        ]}
        argv = ["trees", "--json", "--coloring", "both", front.word()]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == EXIT_OK
        assert buf.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def refused(capsys, word, trees):
        # the trees are counted over the sweep's transitions, and the
        # listing is refused before any tree is listed
        start = time.perf_counter()
        code, out, err = run(capsys, "trees", word, "--json")
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.split()[1:3] == [str(trees), "spanning"]
        assert str(LISTING_LIMIT) in err
        assert time.perf_counter() - start < 2

    def test_oversized_listing_is_refused(self, capsys):
        # a sum of 11 trefoils: 3^11 trees
        self.refused(capsys, "L1 " + "L2 X1 X1 X1 R2 " * 11 + "R1", 3**11)

    def test_torus_knot_listing_is_refused(self, capsys):
        # T(3, 100), about 6 * 10^41 trees
        word = "L1 L2 L3 " + "X1 X2 " * 100 + "R3 R2 R1"
        self.refused(capsys, word, wheel_tree_count(100))

    def test_both_colorings(self, capsys):
        code, out, _ = run(capsys, "trees", TREFOIL, "--coloring", "both", "--json")
        payload = json.loads(out)
        assert {t["coloring"] for t in payload["trees"]} == {
            "canonical",
            "reversed",
        }


class TestOracleCommands:
    def test_homology_json(self, capsys):
        code, out, _ = run(capsys, "homology", TREFOIL, "--json")
        payload = json.loads(out)
        assert payload["min_delta"] == 1
        groups = {(g["i"], g["j"]): (g["rank"], g["torsion"]) for g in payload["groups"]}
        assert groups[(3, 7)] == (0, [2])

    def test_jones_text(self, capsys):
        code, out, _ = run(capsys, "jones", TREFOIL)
        assert out.strip() == "q + q^3 + q^5 - q^9"

    @pytest.mark.parametrize("command", ["homology", "jones"])
    def test_orient_value_may_start_with_a_dash(self, capsys, command):
        code, spaced, err = run(capsys, command, HOPF, "--orient", "-,+", "--json")
        assert code == EXIT_OK, err
        code, joined, err = run(capsys, command, HOPF, "--orient=-,+", "--json")
        assert code == EXIT_OK, err
        assert spaced == joined

    @pytest.mark.parametrize("command", ["homology", "jones"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--orient="],
            ["--orient", ""],
            ["--orient", "+"],
            ["--orient", "+,-,+"],
            ["--orient", "+,"],
            ["--orient", "+-"],
        ],
    )
    def test_orient_needs_one_sign_per_component(self, capsys, command, argv):
        # an empty value is refused, not taken as no option
        code, out, err = run(capsys, command, HOPF, *argv)
        assert code == EXIT_INVALID
        assert out == ""
        assert "--orient needs 2 comma-separated +/- signs" in err

    def test_max_crossings(self, capsys):
        code, _, err = run(capsys, "homology", TREFOIL, "--max-crossings", "2")
        assert code == EXIT_INVALID
        assert "exceeds" in err

    def test_jones_max_crossings(self, capsys):
        code, _, err = run(capsys, "jones", TREFOIL, "--max-crossings", "2")
        assert code == EXIT_INVALID
        assert "exceeds" in err

    def test_jones_refuses_oversized_front_at_once(self, capsys):
        # 22 crossings are over the default crossing limit
        word = "L1 L2 " + "X1 " * 22 + "R2 R1"
        start = time.perf_counter()
        code, _, err = run(capsys, "jones", word)
        assert code == EXIT_INVALID
        assert "exceeds" in err
        assert time.perf_counter() - start < 5

    def test_jones_refuses_a_wide_front_by_its_matching_count(self):
        # nine nested cusps: the sweep line cuts 18 strands, which have up
        # to Catalan(9) = 4862 planar matchings; unguarded, the 102-crossing
        # sweep takes about 10 s.  Run under the benchmark's 2 GiB address
        # space cap
        nest = " ".join(f"L{k}" for k in range(1, 10))
        ladder = " ".join(f"X{p}" for p in range(1, 18))
        close = " ".join(f"R{k}" for k in range(9, 0, -1))
        word = f"{nest} {' '.join([ladder] * 6)} {close}"
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from khfront.cli import main\n"
            f"raise SystemExit(main(['jones', {word!r}, '--max-crossings', '102']))\n"
        )
        start = time.perf_counter()
        proc = run_python("-c", code, timeout=60)
        assert proc.returncode == EXIT_INVALID, proc.stderr
        assert proc.stdout == ""
        assert f"over the limit of {JONES_STATE_LIMIT}" in proc.stderr
        assert time.perf_counter() - start < 10


class TestCorpus:
    def test_bundled_corpus(self, capsys, tmp_path):
        from khfront.corpus import write_corpus_dir

        write_corpus_dir(tmp_path)
        code, out, _ = run(capsys, "corpus", str(tmp_path))
        assert code == EXIT_OK
        assert "0 violations" in out

    def test_violations_count_recorded_tb_mismatches(self, capsys, tmp_path):
        from khfront.corpus import write_corpus_dir

        write_corpus_dir(tmp_path)
        (tmp_path / "trefoil-right-max-tb.front").write_text(
            "# tb=5\nL1 L2 X1 X1 X1 R2 R1\n"
        )
        (tmp_path / "no-header.front").write_text("L1 L2 X1 R2 R1\n")
        code, out, _ = run(capsys, "corpus", str(tmp_path), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["violations"] == 1

    def test_indented_header_is_read(self, capsys, tmp_path):
        # a line whose first non-blank is '#' is a comment, so an indented
        # header is one too, and it still records the tb
        (tmp_path / "trefoil.front").write_text("  # tb=5\nL1 L2 X1 X1 X1 R2 R1\n")
        code, out, _ = run(capsys, "corpus", str(tmp_path))
        assert code == EXIT_OK
        assert out.rstrip().endswith("1 violations")

    def test_bundled_corpus_temp_dir_removed(self, capsys, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        code, out, _ = run(capsys, "corpus")
        assert code == EXIT_OK
        assert "10 fronts, 0 violations" in out
        assert not list(tmp_path.glob("khfront-corpus-*"))

    @pytest.mark.parametrize(
        "flags", [(), ("--json",), ("--oracle",), ("--oracle", "--json")]
    )
    def test_bundled_corpus_matches_its_files(self, capsys, tmp_path, flags):
        from khfront.corpus import write_corpus_dir

        write_corpus_dir(tmp_path)
        in_memory = run(capsys, "corpus", *flags)
        from_files = run(capsys, "corpus", str(tmp_path), *flags)
        assert in_memory[0] == EXIT_OK
        assert in_memory == from_files

    def test_each_file_read_once(self, capsys, tmp_path, monkeypatch):
        from collections import Counter

        from khfront.corpus import write_corpus_dir

        files = write_corpus_dir(tmp_path)
        reads = Counter()
        read_text = Path.read_text

        def counting(self, *args, **kwargs):
            reads[self] += 1
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        code, _, _ = run(capsys, "corpus", str(tmp_path), "--jobs", "1")
        assert code == EXIT_OK
        assert reads == Counter(files)

    def test_analyze_ignores_a_malformed_header(self, capsys, tmp_path):
        path = tmp_path / "f.front"
        path.write_text(f"# tb=x\n{TREFOIL}\n")
        code, out, _ = run(capsys, "certify", f"@{path}")
        assert (code, out) == (EXIT_OK, "verdict = sharp_certified\n")
        code, _, err = run(capsys, "corpus", str(tmp_path))
        assert code == EXIT_INVALID
        assert err == f"error: {path}: bad header '# tb=x'\n"

    def test_bundled_corpus_oracle_under_optimize(self):
        proc = run_optimized("-m", "khfront.cli", "corpus", "--oracle", "--json")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["violations"] == 0

    def test_empty_directory_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "corpus", str(tmp_path), "--json")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"no .front files in {tmp_path}" in err

    def test_out_file_written_atomically(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "certify", TREFOIL, "--json", "--out", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "sharp_certified"
        assert not target.with_suffix(".json.tmp").exists()


#: two unknots, side by side and nested
SPLIT = ("L1 R1 L1 R1", "L1 L1 R1 R1")


class TestSplitFronts:
    """A split front is legal: the oracle commands answer it, and the
    commands that need its Tait graph refuse it."""

    @pytest.mark.parametrize("word", SPLIT)
    def test_oracle_commands_answer(self, capsys, word):
        assert run(capsys, "homology", word) == (
            EXIT_OK,
            "  (  0,  -2)  Z\n  (  0,   0)  Z + Z\n  (  0,   2)  Z\n",
            "",
        )
        assert run(capsys, "jones", word) == (EXIT_OK, "q^-2 + 2 + q^2\n", "")

    @pytest.mark.parametrize("word", SPLIT)
    def test_tree_commands_refuse(self, capsys, tmp_path, word):
        (tmp_path / "split.front").write_text(word + "\n")
        for argv in (
            ["analyze", word],
            ["certify", word, "--oracle"],
            ["trees", word, "--coloring", "both"],
            ["corpus", str(tmp_path)],
        ):
            assert run(capsys, *argv) == (
                EXIT_INVALID,
                "",
                "error: diagram is not connected as a plane subset\n",
            ), argv


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "bogus")[0] == EXIT_USAGE

    def test_missing_command(self, capsys):
        assert run(capsys)[0] == EXIT_USAGE

    def test_invalid_front(self, capsys):
        code, _, err = run(capsys, "analyze", "L1 X2 R1")
        assert code == EXIT_INVALID
        assert "strand" in err.lower() or "needs" in err

    def test_disconnected_front(self, capsys):
        assert run(capsys, "analyze", "L1 R1 L1 R1")[0] == EXIT_INVALID

    @pytest.mark.parametrize(
        "command", ["analyze", "certify", "trees", "homology", "jones", "corpus"]
    )
    def test_empty_word(self, capsys, tmp_path, command):
        # a word with no event, given as text or as a file of comments
        (tmp_path / "empty.front").write_text("# tb=-1\n")
        argvs = [[str(tmp_path)]] if command == "corpus" else [
            [""], [f"@{tmp_path / 'empty.front'}"]
        ]
        for argv in argvs:
            assert run(capsys, command, *argv) == (
                EXIT_INVALID, "", "error: empty front word\n"
            )

    def test_missing_file(self, capsys):
        assert run(capsys, "analyze", "@/no/such/file.front")[0] == EXIT_INVALID

    def test_oversized_front_is_refused_before_the_sweep(self, capsys):
        # a twist eight times over the limit, which analyze used to take
        # about 43 s and 1.6 GB to sweep and count
        word = "L1 L2 " + "X1 " * (8 * EVENT_LIMIT) + "R2 R1"
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", word)
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(EVENT_LIMIT) in err
        assert time.perf_counter() - start < 5

    def test_ten_million_token_file_is_refused_at_once(self, capsys, tmp_path):
        # a 30 MB file: the word is split one token past the limit, not
        # into ten million tokens
        path = tmp_path / "huge.front"
        path.write_text("# tb=0\n" + "X1 " * 10**7 + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", f"@{path}")
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("error: ") and str(EVENT_LIMIT) in err
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "command", ["analyze", "certify", "homology", "jones", "corpus"]
    )
    def test_negative_max_crossings_is_a_usage_error(self, capsys, command):
        front = [] if command == "corpus" else [HOPF]
        code, out, err = run(capsys, command, *front, "--max-crossings", "-1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.count("error:") == 1 and "--max-crossings" in err

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_corpus_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        code, out, err = run(capsys, "corpus", "--jobs", jobs)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.count("error:") == 1 and "--jobs" in err

    def test_zero_max_crossings_is_a_limit(self, capsys):
        assert run(capsys, "homology", "L1 R1", "--max-crossings", "0")[0] == EXIT_OK
        code, _, err = run(capsys, "homology", HOPF, "--max-crossings", "0")
        assert code == EXIT_INVALID and "exceeds" in err

    def test_convention_exit_code_value(self):
        assert EXIT_CONVENTION == 2


class TestFileErrors:
    """A file that cannot be read or written ends in one ``error:`` line
    and exit 65, with nothing on stdout and no temporary file left."""

    def refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_front_file_is_a_directory(self, capsys, tmp_path):
        self.refused(capsys, "analyze", f"@{tmp_path}")

    def test_front_file_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.front"
        path.write_bytes(b"L1 \xff R1\n")
        err = self.refused(capsys, "analyze", f"@{path}")
        assert str(path) in err

    def test_corpus_file_is_not_utf8(self, capsys, tmp_path):
        (tmp_path / "a.front").write_text(f"{TREFOIL}\n")
        path = tmp_path / "b.front"
        path.write_bytes(b"L1 \xff R1\n")
        err = self.refused(capsys, "corpus", str(tmp_path))
        assert str(path) in err

    def test_out_is_a_directory(self, capsys, tmp_path):
        self.refused(capsys, "analyze", TREFOIL, "--out", str(tmp_path))
        assert not tmp_path.with_suffix(".tmp").exists()

    def test_out_has_no_file_name(self, capsys):
        self.refused(capsys, "analyze", TREFOIL, "--out", "/")

    def test_failed_write_removes_its_tmp_file(self, capsys, tmp_path, monkeypatch):
        def refuse(self, target):
            raise PermissionError(f"cannot replace {target}")

        monkeypatch.setattr(Path, "replace", refuse)
        target = tmp_path / "report.txt"
        err = self.refused(capsys, "certify", TREFOIL, "--out", str(target))
        assert err.startswith(f"error: cannot write --out {target}: ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_names_the_out_path(self, capsys, tmp_path):
        # the temporary file is the program's own: the message names the
        # path that was given and the reason, not the .tmp beside it
        target = tmp_path / "missing" / "x.json"
        err = self.refused(capsys, "analyze", TREFOIL, "--out", str(target))
        assert err == f"error: cannot write --out {target}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_corpus_entry_is_a_directory(self, capsys, tmp_path):
        (tmp_path / "x.front").mkdir()
        self.refused(capsys, "corpus", str(tmp_path))


class TestParser:
    @pytest.mark.parametrize(
        "argv, options",
        [
            (["analyze", "W"], {"front": "W", "oracle": False, "max_crossings": 14}),
            (["certify", "W"], {"front": "W", "oracle": False, "max_crossings": 14}),
            (["trees", "W"], {"front": "W", "coloring": "canonical"}),
            (["homology", "W"], {"front": "W", "orient": None, "max_crossings": 14}),
            (["jones", "W"], {"front": "W", "orient": None, "max_crossings": 14}),
            (
                ["corpus"],
                {"directory": None, "oracle": False, "max_crossings": 14, "jobs": 4},
            ),
        ],
    )
    def test_option_names_and_defaults(self, argv, options):
        args = _parser().parse_args(argv)
        assert vars(args) == {
            "command": argv[0], "json": False, "out": None, **options
        }

    def test_one_run_leaves_nothing_for_the_next(self, capsys):
        # the parser is built once per process; a run's options, or a
        # usage error, must not carry over to a later run
        code, out, _ = run(capsys, "analyze", TREFOIL, "--oracle", "--json")
        assert code == EXIT_OK and json.loads(out)["min_delta"] == 1
        assert run(capsys, "bogus")[0] == EXIT_USAGE
        code, out, _ = run(capsys, "analyze", TREFOIL, "--json")
        assert code == EXIT_OK and json.loads(out)["min_delta"] is None

    def test_orientation_does_not_carry_over(self, capsys):
        code, flipped, _ = run(capsys, "homology", HOPF, "--orient", "-,+")
        assert code == EXIT_OK
        code, plain, _ = run(capsys, "homology", HOPF)
        assert code == EXIT_OK
        fresh = run_python("-m", "khfront.cli", "homology", HOPF)
        assert fresh.returncode == EXIT_OK, fresh.stderr
        assert plain == fresh.stdout != flipped


class TestRuntime:
    def test_imports_stay_in_the_standard_library(self):
        # every top-level module that importing the package and its CLI
        # loads into a fresh interpreter is khfront's own or stdlib
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import khfront, khfront.cli\n"
            "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(' '.join(sorted(loaded)))\n"
        )
        proc = run_python("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "khfront" in loaded
        foreign = [
            m for m in loaded if m != "khfront" and m not in sys.stdlib_module_names
        ]
        assert foreign == []


class TestDemos:
    @pytest.mark.parametrize(
        "script",
        ["01_trefoil_walkthrough.py", "02_duality.py", "03_corpus_survey.py"],
    )
    def test_demo_runs_and_every_check_holds(self, script):
        proc = run_python(str(DEMOS / script), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "False" not in proc.stdout

    def test_corpus_survey_checks_survive_optimize(self):
        proc = run_python("-O", str(DEMOS / "03_corpus_survey.py"), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "10 fronts verified" in proc.stdout


class TestAcceptanceUnderOptimize:
    def test_acceptance_suite_passes_under_optimize(self):
        # -O strips asserts inside the package, so every check the
        # acceptance criteria rely on must raise on its own
        suite = Path(__file__).resolve().parent / "test_acceptance.py"
        proc = run_optimized(
            "-m", "pytest", "-q", "-p", "no:cacheprovider", str(suite), timeout=600
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "8 passed" in proc.stdout
