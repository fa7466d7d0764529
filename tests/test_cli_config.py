"""Run parameters at the command line: each subcommand accepts only the
flags it reads, --config supplies defaults for those flags, and
resolved_config.json records exactly what the run read."""

import json

from fplab.cli import build_parser, main


def _resolved(out):
    return json.loads((out / "resolved_config.json").read_text())


def test_defaults():
    args = build_parser().parse_args(["steady"])
    assert (args.model, args.L, args.n, args.outdir) == ("classical", 12.0, 1025, "out")


def test_flags_of_other_subcommands_are_usage_errors(tmp_path):
    assert main(["steady", "--n-paths", "10", "--outdir", str(tmp_path)]) == 2
    assert main(["sde", "--model", "classical", "--noise", "stable:1.5",
                 "--check", "coupling", "--n-paths", "10", "--t-end", "1",
                 "--dt", "0.5", "--outdir", str(tmp_path)]) == 2
    assert main(["accept", "--n", "4097", "--outdir", str(tmp_path)]) == 2


def test_persist_resolved(tmp_path):
    out = tmp_path / "steady"
    assert main(["steady", "--n", "65", "--outdir", str(out)]) == 0
    assert _resolved(out) == {"command": "steady", "model": "classical",
                              "L": 12.0, "n": 65, "outdir": str(out)}
    out = tmp_path / "sde"
    assert main(["sde", "--noise", "stable:1.5", "--check", "coupling",
                 "--n-paths", "10", "--t-end", "1", "--dt", "0.5",
                 "--outdir", str(out)]) == 0
    assert _resolved(out) == {"command": "sde", "noise": "stable:1.5",
                              "check": "coupling", "n_paths": 10, "t_end": 1.0,
                              "dt": 0.5, "seed": 0, "outdir": str(out)}


def test_flag_precedence_over_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 129, "L": 8}))
    for argv in (["--config", str(cfg), "--n", "65"], ["--n", "65", "--config", str(cfg)]):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        assert main(["steady", *argv, "--outdir", str(out)]) == 0
        assert _resolved(out) == {"command": "steady", "model": "classical",
                                  "L": 8, "n": 65, "outdir": str(out)}


def test_unknown_config_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_paths": 10}))
    out = tmp_path / "run"
    assert main(["steady", "--config", str(cfg), "--outdir", str(out)]) == 2
    cfg.write_text(json.dumps({"modle": "typo"}))
    assert main(["steady", "--config", str(cfg), "--outdir", str(out)]) == 2
    assert main(["steady", "--config", str(tmp_path / "missing.json"),
                 "--outdir", str(out)]) == 2
    assert not out.exists()
