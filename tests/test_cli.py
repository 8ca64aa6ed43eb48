"""End-to-end checks for the command-line interface.

Every subcommand is invoked in-process through ``main(argv)`` so the tests
exercise argument wiring, exit codes, and file outputs without spawning
subprocesses.  A small seeded corpus is staged once per module and the
build -> prune -> query -> eval chain runs over the staged artifacts.
"""
import json

import pytest

from forking import assert_no_child_left, forking, in_one_process
from tempoprune import aspects, gmm
from tempoprune.cli import main
from tempoprune.corpus import Corpus, Document, write_corpus
from tempoprune.index import PostingList, build_index, read_index, verify_index, write_index
from tempoprune.synth import random_corpus


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """Staging dir with a corpus file, a built index, and a topics file."""
    root = tmp_path_factory.mktemp("cli")
    corpus = random_corpus(n_docs=80, seed=3, vocab_size=15)
    write_corpus(corpus, root / "corpus.jsonl")
    topics = [
        {"qid": "t1", "title": "w000", "description": "w001 archive"},
        {"qid": "t2", "title": "w001"},
    ]
    with open(root / "topics.jsonl", "w", encoding="utf-8") as fh:
        for record in topics:
            fh.write(json.dumps(record) + "\n")
    rc = main(["build", "--corpus", str(root / "corpus.jsonl"), "--out", str(root / "idx.bin")])
    assert rc == 0
    return root


def test_build_outputs_and_verify(cli_dir, capsys):
    capsys.readouterr()
    assert (cli_dir / "idx.bin").exists()
    assert (cli_dir / "idx.bin.manifest.json").exists()
    rc = main(["verify", str(cli_dir / "idx.bin")])
    out = capsys.readouterr().out
    assert rc == 0
    assert ": ok (" in out
    assert "pruned=False" in out


def test_build_reruns_are_byte_identical(cli_dir, tmp_path):
    out = tmp_path / "again.bin"
    argv = ["build", "--corpus", str(cli_dir / "corpus.jsonl"), "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    first_manifest = (tmp_path / "again.bin.manifest.json").read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "again.bin.manifest.json").read_bytes() == first_manifest


def test_build_manifest_parameters(cli_dir):
    manifest = json.loads((cli_dir / "idx.bin.manifest.json").read_text())
    assert manifest["subcommand"] == "build"
    assert manifest["parameters"]["format"] == "jsonl"
    assert "func" not in manifest["parameters"]
    # reruns must be reproducible from the manifest alone: no clock state
    assert "time" not in json.dumps(manifest).lower()


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("tempoprune ")


def test_windows_stdout_json(cli_dir, capsys):
    rc = main(["windows", "--index", str(cli_dir / "idx.bin"), "--term", "disaster"])
    out = capsys.readouterr().out
    assert rc == 0
    record = json.loads(out)
    assert record["term"] == "disaster"
    assert record["model"] == "simple"
    assert record["gamma"] >= 1
    weights = [a["weight"] for a in record["aspects"]]
    assert sum(weights) == pytest.approx(1.0)
    assert any(a["global"] for a in record["aspects"])


def test_windows_file_outputs(cli_dir, tmp_path, capsys):
    out = tmp_path / "win.json"
    hist = tmp_path / "hist.csv"
    rc = main([
        "windows", "--index", str(cli_dir / "idx.bin"), "--term", "disaster",
        "--model", "sliding", "--out", str(out), "--hist-csv", str(hist),
    ])
    capsys.readouterr()
    assert rc == 0
    record = json.loads(out.read_text())
    assert record["model"] == "sliding"
    assert (tmp_path / "win.json.manifest.json").exists()
    lines = hist.read_text().splitlines()
    assert lines[0] == "day,date,count"
    assert len(lines) == len(record["series"]) + 1


def test_prune_div_manifest_reports_achieved_ratio(cli_dir, capsys):
    out = cli_dir / "div.bin"
    rc = main([
        "prune", "--in", str(cli_dir / "idx.bin"), "--out", str(out),
        "--method", "div-simple", "--ratio", "0.5",
    ])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "achieved ratio" in stdout
    manifest = json.loads((cli_dir / "div.bin.manifest.json").read_text())
    assert manifest["method"] == "div-simple"
    assert 0.0 < manifest["achieved_ratio"] < 1.0
    pruned = read_index(out)
    assert pruned.pruned
    verify_index(pruned)


def test_div_dynamic_prune_on_forked_workers_writes_the_one_process_bytes(cli_dir, tmp_path, monkeypatch):
    """With its EM groups and greedy terms shared among forked workers, a
    div-dynamic prune writes the index and manifest of the one-process
    prune, and leaves no process behind."""
    out = tmp_path / "dyn.bin"
    manifest = tmp_path / "dyn.bin.manifest.json"
    argv = ["prune", "--in", str(cli_dir / "idx.bin"), "--out", str(out),
            "--method", "div-dynamic", "--ratio", "0.5", "--k-max", "5", "--seed", "0"]
    monkeypatch.setattr(gmm, "EM_CELL_BUDGET", 1)  # about one group per term
    in_one_process(monkeypatch)
    assert main(argv) == 0
    alone = out.read_bytes(), manifest.read_bytes()
    forks = forking(monkeypatch, cpus=3)
    assert main(argv) == 0
    assert forks == [1] * 4  # two children for the EM groups, two for the greedy
    assert (out.read_bytes(), manifest.read_bytes()) == alone
    assert_no_child_left()


def test_prune_threshold_tuned_manifest(cli_dir, tmp_path, capsys):
    out = tmp_path / "tcp.bin"
    rc = main([
        "prune", "--in", str(cli_dir / "idx.bin"), "--out", str(out),
        "--method", "tcp", "--ratio", "0.4",
    ])
    capsys.readouterr()
    assert rc == 0
    manifest = json.loads((tmp_path / "tcp.bin.manifest.json").read_text())
    assert manifest["tuned"]["target_ratio"] == 0.4
    assert manifest["epsilon"] == manifest["tuned"]["epsilon"]
    assert abs(manifest["achieved_ratio"] - 0.4) <= 0.01 or manifest["tuned"]["flagged"]


def test_prune_unreachable_target_exits_zero_and_flags(cli_dir, tmp_path, capsys, caplog):
    # tcp keeps every posting at or above its cutoff, so 0.9 is out of reach
    out = tmp_path / "tcp.bin"
    rc = main([
        "prune", "--in", str(cli_dir / "idx.bin"), "--out", str(out),
        "--method", "tcp", "--ratio", "0.9",
    ])
    capsys.readouterr()
    assert rc == 0
    assert "target ratio 0.900 unreachable" in caplog.text
    manifest = json.loads((tmp_path / "tcp.bin.manifest.json").read_text())
    assert manifest["tuned"]["flagged"] is True
    assert manifest["tuned"]["epsilon"] == 1.0
    assert manifest["achieved_ratio"] < 0.89
    assert "recompute_stats" not in manifest["parameters"]


def test_prune_direct_epsilon(cli_dir, tmp_path, capsys):
    out = tmp_path / "ipu.bin"
    rc = main([
        "prune", "--in", str(cli_dir / "idx.bin"), "--out", str(out),
        "--method", "ipu", "--epsilon", "0.001",
    ])
    capsys.readouterr()
    assert rc == 0
    manifest = json.loads((tmp_path / "ipu.bin.manifest.json").read_text())
    assert manifest["epsilon"] == 0.001
    assert "tuned" not in manifest
    verify_index(read_index(out))


def test_query_stdout_trec_lines(cli_dir, capsys):
    rc = main(["query", "--index", str(cli_dir / "idx.bin"), "--q", "w000 w001", "--depth", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert 0 < len(lines) <= 5
    parts = lines[0].split()
    assert parts[0] == "q1" and parts[1] == "Q0" and parts[3] == "1"
    assert parts[5] == "tempoprune"


def test_query_time_filter_defaults_to_exclusive(cli_dir, capsys):
    argv = ["query", "--index", str(cli_dir / "idx.bin"), "--q", "w000"]
    assert main(argv) == 0
    unfiltered = {line.split()[2] for line in capsys.readouterr().out.splitlines()}
    assert main(argv + ["--time", "2001"]) == 0
    filtered = {line.split()[2] for line in capsys.readouterr().out.splitlines()}
    assert filtered < unfiltered


def test_query_file_output(cli_dir, tmp_path, capsys):
    out = tmp_path / "run.txt"
    rc = main([
        "query", "--index", str(cli_dir / "idx.bin"), "--q", "w002",
        "--qid", "qx", "--tag", "r1", "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines and all(line.split()[0] == "qx" and line.split()[-1] == "r1" for line in lines)
    manifest = json.loads((tmp_path / "run.txt.manifest.json").read_text())
    assert manifest["n_hits"] == len(lines)


def test_genqueries_writes_queries_and_qrels(cli_dir, capsys):
    rc = main([
        "genqueries", "--index", str(cli_dir / "idx.bin"),
        "--topics", str(cli_dir / "topics.jsonl"), "--interval", "monthly",
        "--n", "6", "--seed", "5",
        "--out", str(cli_dir / "queries.jsonl"), "--qrels-out", str(cli_dir / "qrels.txt"),
    ])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in stdout
    records = [json.loads(line) for line in (cli_dir / "queries.jsonl").read_text().splitlines()]
    assert records
    assert all(r["kind"] == "exclusive" and r["windows"] for r in records)
    qrels_lines = (cli_dir / "qrels.txt").read_text().splitlines()
    assert qrels_lines and all(len(line.split()) == 4 for line in qrels_lines)
    manifest = json.loads((cli_dir / "queries.jsonl.manifest.json").read_text())
    assert manifest["n_queries"] == len(records)


def test_genqueries_span(cli_dir, tmp_path, capsys):
    out = tmp_path / "q.jsonl"
    argv = ["genqueries", "--index", str(cli_dir / "idx.bin"),
            "--topics", str(cli_dir / "topics.jsonl"), "--n", "2", "--out", str(out)]
    for bad in ("5", "a,b", "1,2,3", ""):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--span", bad])
        assert exc.value.code == 2
        assert "argument --span: expected lo,hi day numbers" in capsys.readouterr().err
    assert main(argv + ["--span", "11000,10000"]) == 1
    assert "empty corpus span (11000, 10000)" in capsys.readouterr().err
    assert main(argv + ["--span", "10950,12000"]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "q.jsonl.manifest.json").read_text())
    assert manifest["parameters"]["span"] == [10950, 12000]


def test_eval_queries_and_json_output(cli_dir, tmp_path, capsys):
    out = tmp_path / "eval.json"
    rc = main([
        "eval", "--index", str(cli_dir / "idx.bin"),
        "--queries", str(cli_dir / "queries.jsonl"), "--qrels", str(cli_dir / "qrels.txt"),
        "--out", str(out),
    ])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert stdout.startswith("map=") and "ndcg=" in stdout and "n_queries=" in stdout
    payload = json.loads(out.read_text())
    # self-judged: every generated query scores perfectly on its own index
    assert payload["map"] == 1.0 and payload["ndcg"] == 1.0
    assert payload["n_queries"] > 0


def test_eval_run_file_path(cli_dir, tmp_path, capsys):
    qid = (cli_dir / "qrels.txt").read_text().split()[0]
    terms = next(
        json.loads(line)["terms"]
        for line in (cli_dir / "queries.jsonl").read_text().splitlines()
        if json.loads(line)["qid"] == qid
    )
    run = tmp_path / "run.txt"
    rc = main([
        "query", "--index", str(cli_dir / "idx.bin"), "--q", " ".join(terms),
        "--qid", qid, "--out", str(run),
    ])
    capsys.readouterr()
    assert rc == 0
    rc = main(["eval", "--run", str(run), "--qrels", str(cli_dir / "qrels.txt")])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "n_queries=1" in stdout


def test_sweep_outputs_and_double_run_identical(cli_dir, tmp_path, capsys):
    argv = [
        "sweep", "--index", str(cli_dir / "idx.bin"),
        "--queries", str(cli_dir / "queries.jsonl"), "--qrels", str(cli_dir / "qrels.txt"),
        "--methods", "tcp,div-simple", "--ratios", "0.0,0.5",
        "--out", str(tmp_path / "sweep.csv"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    csv_bytes = (tmp_path / "sweep.csv").read_bytes()
    details_bytes = (tmp_path / "sweep.csv.details.json").read_bytes()
    manifest_bytes = (tmp_path / "sweep.csv.manifest.json").read_bytes()

    lines = csv_bytes.decode().splitlines()
    assert lines[0] == "method,ratio,map,ndcg,n_queries"
    assert len(lines) == 5
    assert [line.split(",")[0] for line in lines[1:]] == ["div-simple", "div-simple", "tcp", "tcp"]
    details = json.loads(details_bytes)
    assert {row["method"] for row in details} == {"tcp", "div-simple"}

    assert main(argv) == 0
    capsys.readouterr()
    assert (tmp_path / "sweep.csv").read_bytes() == csv_bytes
    assert (tmp_path / "sweep.csv.details.json").read_bytes() == details_bytes
    assert (tmp_path / "sweep.csv.manifest.json").read_bytes() == manifest_bytes


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "/nonexistent/idx.bin"],
        ["build", "--corpus", "/nonexistent/c.jsonl", "--out", "/tmp/never.bin"],
    ],
    ids=["missing-index", "missing-corpus"],
)
def test_io_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_prune_flag_conflicts_exit_one(cli_dir, tmp_path, capsys):
    idx = str(cli_dir / "idx.bin")
    out = str(tmp_path / "x.bin")
    assert main(["prune", "--in", idx, "--out", out, "--method", "tcp"]) == 1
    assert "needs --epsilon or --ratio" in capsys.readouterr().err
    argv = ["prune", "--in", idx, "--out", out, "--method", "div-simple",
            "--k", "2", "--ratio", "0.5"]
    assert main(argv) == 1
    assert "exactly one of" in capsys.readouterr().err


def test_prune_flag_conflict_fails_before_aspect_build(cli_dir, tmp_path, capsys, monkeypatch):
    from tempoprune import cli

    def no_build(*args, **kwargs):
        raise AssertionError("aspect sets built for a rejected request")

    monkeypatch.setattr(cli, "build_aspect_sets", no_build)
    argv = ["prune", "--in", str(cli_dir / "idx.bin"), "--out", str(tmp_path / "x.bin"),
            "--method", "div-dynamic", "--k", "2", "--ratio", "0.5"]
    assert main(argv) == 1
    assert "exactly one of" in capsys.readouterr().err


@pytest.mark.parametrize(
    "level, message",
    [
        (["--method", "ipu", "--epsilon", "0.001", "--ratio", "0.2"], "exactly one of"),
        (["--method", "tcp", "--ratio", "0.5", "--k", "3"], "exactly one of"),
        (["--method", "div-simple", "--ratio", "0.5", "--epsilon", "0.2"], "exactly one of"),
        (["--method", "tcp", "--ratio", "1.5"], "ratio must be in (0, 1)"),
        (["--method", "tcp", "--ratio", "-0.3"], "ratio must be in (0, 1)"),
        (["--method", "tcp", "--epsilon", "1.5"], "tcp epsilon must be <= 1"),
        (["--method", "div-sliding", "--k", "0"], "k must be >= 1"),
    ],
)
def test_prune_rejects_a_level_the_method_does_not_take(
    cli_dir, tmp_path, capsys, monkeypatch, level, message
):
    from tempoprune import cli

    def no_build(*args, **kwargs):
        raise AssertionError("aspect sets built for a rejected request")

    monkeypatch.setattr(cli, "build_aspect_sets", no_build)
    out = tmp_path / "x.bin"
    assert main(["prune", "--in", str(cli_dir / "idx.bin"), "--out", str(out), *level]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bad_usage_exits_two(cli_dir, capsys):
    for argv in (
        [],
        ["frobnicate"],
        ["prune", "--in", str(cli_dir / "idx.bin")],
        ["prune", "--in", str(cli_dir / "idx.bin"), "--out", "/tmp/x.bin", "--method", "bogus"],
        ["genqueries", "--index", str(cli_dir / "idx.bin"), "--topics", "t.jsonl",
         "--out", "q.jsonl", "--interval", "hourly"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


@pytest.mark.parametrize(
    "given",
    [[], ["--index", "idx.bin"], ["--queries", "queries.jsonl"]],
    ids=["nothing", "index-only", "queries-only"],
)
def test_eval_without_inputs_is_a_usage_error(capsys, given):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--qrels", "qrels.txt", *given])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--run" in err and "--index" in err and "--queries" in err


def test_eval_malformed_queries_exit_one(cli_dir, tmp_path, capsys):
    queries = tmp_path / "bad.jsonl"
    queries.write_text('{"qid": "q1", "terms": "w001"}\n', encoding="utf-8")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("q1 0 d0001 1\n", encoding="utf-8")
    rc = main(["eval", "--index", str(cli_dir / "idx.bin"), "--queries", str(queries),
               "--qrels", str(qrels)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{queries}:1: terms must be a list of strings" in err


@pytest.mark.parametrize("subcommand", ["build", "genqueries", "eval"])
def test_deeply_nested_json_exits_one(cli_dir, tmp_path, capsys, subcommand):
    deep = tmp_path / "deep.jsonl"
    deep.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("q1 0 d0001 1\n", encoding="utf-8")
    idx, out = str(cli_dir / "idx.bin"), str(tmp_path / "out")
    argv = {
        "build": ["build", "--corpus", str(deep), "--out", out],
        "genqueries": ["genqueries", "--index", idx, "--topics", str(deep), "--out", out],
        "eval": ["eval", "--index", idx, "--queries", str(deep), "--qrels", str(qrels)],
    }[subcommand]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "JSON nested too deeply to decode" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "qrels_line, run_line, message",
    [
        ("q1 0 d0001 x", "q1 Q0 d0001 1 2.0 tag", "qrels.txt:1: grade must be an integer, got 'x'"),
        ("q1 0 d0001 1", "q1 Q0 d0001 1 notanumber tag", "run.txt:1: score must be a number, got 'notanumber'"),
    ],
    ids=["bad-grade", "bad-score"],
)
def test_eval_malformed_qrels_or_run_exit_one(tmp_path, capsys, qrels_line, run_line, message):
    qrels, run = tmp_path / "qrels.txt", tmp_path / "run.txt"
    qrels.write_text(qrels_line + "\n", encoding="utf-8")
    run.write_text(run_line + "\n", encoding="utf-8")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 1
    assert f"{tmp_path}/{message}" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_eval_run_depth_below_one_exits_one(tmp_path, capsys, depth):
    qrels, run = tmp_path / "qrels.txt", tmp_path / "run.txt"
    qrels.write_text("".join(f"q1 0 d{i} 1\n" for i in range(3)), encoding="utf-8")
    run.write_text("".join(f"q1 Q0 d{i} {i + 1} {3 - i}.0 tag\n" for i in range(3)), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--qrels", str(qrels), "--depth", depth]) == 1
    captured = capsys.readouterr()
    assert f"depth must be >= 1, got {depth}" in captured.err
    assert "ndcg=" not in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("subcommand", ["build", "genqueries", "eval-queries", "eval-qrels", "eval-run"])
def test_bytes_that_are_not_utf8_exit_one(cli_dir, tmp_path, capsys, subcommand):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")
    good_qrels = tmp_path / "qrels.txt"
    good_qrels.write_text("q1 0 d0001 1\n", encoding="utf-8")
    idx, out = str(cli_dir / "idx.bin"), str(tmp_path / "out")
    argv = {
        "build": ["build", "--corpus", str(bad), "--out", out],
        "genqueries": ["genqueries", "--index", idx, "--topics", str(bad), "--out", out],
        "eval-queries": ["eval", "--index", idx, "--queries", str(bad), "--qrels", str(good_qrels)],
        "eval-qrels": ["eval", "--index", idx, "--queries", str(bad), "--qrels", str(bad)],
        "eval-run": ["eval", "--run", str(bad), "--qrels", str(good_qrels)],
    }[subcommand]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}:1: not UTF-8: byte 0xff at offset 0 (invalid start byte)" in err
    assert "Traceback" not in err


def test_prune_of_an_index_with_an_empty_list_exits_one(tmp_path, capsys):
    """A list of no postings (df 0) is an index format error, not a
    division by zero in the tcp statistics."""
    index = build_index(Corpus(documents=[Document("d1", ["a", "b", "a"]), Document("d2", ["b"])]))
    index.lists["c"] = PostingList([], [])
    index.stats.df["c"] = index.stats.ctf["c"] = 0
    write_index(index, tmp_path / "idx.bin")
    capsys.readouterr()
    argv = ["prune", "--in", str(tmp_path / "idx.bin"), "--out", str(tmp_path / "out.bin"),
            "--method", "tcp", "--ratio", "0.5"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: term 'c': empty posting list" in err
    assert "Traceback" not in err


# --- strict JSON out, and the options that would break it -----------------------

def _no_constant(name):
    raise AssertionError(f"{name} written to a JSON file")


def _gen_queries(cli_dir, out_dir):
    """Queries and all-relevant qrels of the staged index, in `out_dir`."""
    queries, qrels = out_dir / "queries.jsonl", out_dir / "qrels.txt"
    assert main(["genqueries", "--index", str(cli_dir / "idx.bin"), "--topics", str(cli_dir / "topics.jsonl"),
                 "--interval", "monthly", "--n", "6", "--seed", "5",
                 "--out", str(queries), "--qrels-out", str(qrels)]) == 0
    return queries, qrels


def test_every_subcommand_writes_strict_json(cli_dir, tmp_path, capsys):
    idx, pruned = str(tmp_path / "idx.bin"), str(tmp_path / "pruned.bin")
    assert main(["build", "--corpus", str(cli_dir / "corpus.jsonl"), "--out", idx]) == 0
    assert main(["verify", idx]) == 0
    assert main(["windows", "--index", idx, "--term", "disaster", "--model", "dynamic",
                 "--out", str(tmp_path / "windows.json")]) == 0
    assert main(["prune", "--in", idx, "--out", pruned, "--method", "tcp", "--ratio", "0.5"]) == 0
    assert main(["query", "--index", idx, "--q", "disaster", "--out", str(tmp_path / "run.txt")]) == 0
    queries, qrels = _gen_queries(cli_dir, tmp_path)
    assert main(["eval", "--index", pruned, "--queries", str(queries), "--qrels", str(qrels),
                 "--out", str(tmp_path / "eval.json")]) == 0
    assert main(["sweep", "--index", idx, "--queries", str(queries), "--qrels", str(qrels),
                 "--methods", "tcp,div-simple", "--ratios", "0.0,0.5", "--out", str(tmp_path / "sweep.csv")]) == 0
    capsys.readouterr()
    manifests = {}
    for path in sorted(tmp_path.iterdir()):
        if path.suffix == ".jsonl":
            for line in path.read_text().splitlines():
                json.loads(line, parse_constant=_no_constant)
        elif path.suffix == ".json":
            record = json.loads(path.read_text(), parse_constant=_no_constant)
            if path.name.endswith(".manifest.json"):
                manifests[record["subcommand"]] = record["parameters"]
    assert sorted(manifests) == ["build", "eval", "genqueries", "prune", "query", "sweep", "windows"]
    assert not any({"keep_stopwords", "presence_only"} & p.keys() for p in manifests.values())
    assert manifests["sweep"]["ratios"] == "0.0,0.5"  # the list as given


@pytest.mark.parametrize(
    "subcommand, flag",
    [("build", "--keep-stopwords"), ("query", "--keep-stopwords"), ("genqueries", "--keep-stopwords"),
     ("windows", "--presence-only"), ("prune", "--presence-only"), ("sweep", "--presence-only")],
)
def test_removed_flags_are_usage_errors(cli_dir, tmp_path, capsys, subcommand, flag):
    idx, out = str(cli_dir / "idx.bin"), str(tmp_path / "out")
    argv = {
        "build": ["--corpus", str(cli_dir / "corpus.jsonl"), "--out", out],
        "query": ["--index", idx, "--q", "disaster", "--out", out],
        "genqueries": ["--index", idx, "--topics", str(cli_dir / "topics.jsonl"), "--out", out],
        "windows": ["--index", idx, "--term", "disaster", "--out", out],
        "prune": ["--in", idx, "--out", out, "--method", "div-simple", "--ratio", "0.5"],
        "sweep": ["--index", idx, "--queries", "q.jsonl", "--qrels", "qrels.txt",
                  "--methods", "tcp", "--ratios", "0.5", "--out", out],
    }[subcommand]
    with pytest.raises(SystemExit) as exc:
        main([subcommand, *argv, flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["prune", "--method", "tcp", "--epsilon", "nan"], "--epsilon", "nan"),
        (["prune", "--method", "ipu", "--epsilon", "inf"], "--epsilon", "inf"),
        (["prune", "--method", "tcp", "--ratio", "0.5", "--lambda-w", "nan", "--jm-lambda", "inf"],
         "--lambda-w", "nan"),
        (["prune", "--method", "tcp", "--ratio", "0.5", "--jm-lambda", "inf"], "--jm-lambda", "inf"),
        (["prune", "--method", "div-simple", "--ratio=-inf"], "--ratio", "-inf"),
        (["prune", "--method", "div-simple", "--ratio", "half"], "--ratio", "half"),
        (["windows", "--term", "disaster", "--lambda-w", "NaN"], "--lambda-w", "NaN"),
        (["sweep", "--methods", "ipu", "--ratios", "0.5", "--jm-lambda", "nan"], "--jm-lambda", "nan"),
        (["sweep", "--methods", "ipu", "--ratios", "abc"], "--ratios", "abc"),
        (["sweep", "--methods", "ipu", "--ratios", "0.3,inf"], "--ratios", "inf"),
        (["sweep", "--methods", "ipu", "--ratios", "0.3,"], "--ratios", ""),
    ],
)
def test_non_finite_float_options_are_usage_errors(cli_dir, tmp_path, capsys, argv, flag, value):
    idx, out = str(cli_dir / "idx.bin"), str(tmp_path / "out")
    inputs = {
        "prune": ["--in", idx, "--out", out],
        "windows": ["--index", idx, "--out", out],
        "sweep": ["--index", idx, "--queries", "q.jsonl", "--qrels", "qrels.txt", "--out", out],
    }[argv[0]]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *inputs, *argv[1:]])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a finite number, got {value!r}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["prune", "--method", "ipu", "--ratio", "0.5", "--jm-lambda", "5"], "jm lambda must be in [0, 1], got 5.0"),
        (["prune", "--method", "div-simple", "--ratio", "0.5", "--jm-lambda", "-3"],
         "jm lambda must be in [0, 1], got -3.0"),
        (["sweep", "--methods", "ipu", "--ratios", "0.0,0.5", "--jm-lambda", "1.5"],
         "jm lambda must be in [0, 1], got 1.5"),
        (["sweep", "--methods", "", "--ratios", "0.5"], "no method to sweep"),
        (["sweep", "--methods", " , ", "--ratios", "0.5"], "no method to sweep"),
    ],
)
def test_out_of_range_prune_options_exit_one(cli_dir, tmp_path, capsys, argv, message):
    idx, out = str(cli_dir / "idx.bin"), tmp_path / "out"
    if argv[0] == "prune":
        inputs = ["--in", idx, "--out", str(out)]
    else:
        queries, qrels = _gen_queries(cli_dir, tmp_path)
        inputs = ["--index", idx, "--queries", str(queries), "--qrels", str(qrels), "--out", str(out)]
    capsys.readouterr()
    assert main([argv[0], *inputs, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["prune", "sweep"])
def test_out_of_range_jm_lambda_exits_before_any_fit(cli_dir, tmp_path, capsys, monkeypatch, command):
    idx, out = str(cli_dir / "idx.bin"), str(tmp_path / "out")
    if command == "prune":
        argv = ["prune", "--in", idx, "--out", out, "--method", "div-dynamic", "--ratio", "0.5"]
    else:
        queries, qrels = _gen_queries(cli_dir, tmp_path)
        argv = ["sweep", "--index", idx, "--queries", str(queries), "--qrels", str(qrels), "--out", out,
                "--methods", "div-dynamic", "--ratios", "0.0,0.5"]
    monkeypatch.setattr(aspects, "select_k_bic_each", lambda *a, **k: pytest.fail("fitted"))
    capsys.readouterr()
    assert main([*argv, "--jm-lambda", "5"]) == 1
    assert capsys.readouterr().err == "error: jm lambda must be in [0, 1], got 5.0\n"
    assert not list(tmp_path.glob("out*"))
