import hashlib
import json
from collections import Counter

import pytest

from locent.cli import dispatch
from locent.classes import threshold_instance

import oracles
from oracles import make_rng


def run(argv):
    return dispatch(argv)


class TestMeasuresCommand:
    def test_thresholds_16(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run(["measures", "--generator", "thresholds", "--points", "16",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["results"]["d"]["value"] == 1
        assert payload["results"]["s"]["value"] == 2
        assert payload["results"]["d"]["exact"] and payload["results"]["s"]["exact"]
        assert payload["config"]["args"]["seed"] if "seed" in payload["config"]["args"] else True

    def test_growth_column(self, tmp_path):
        out = tmp_path / "m.json"
        run(["measures", "--generator", "thresholds", "--points", "8",
             "--growth-max", "4", "--out", str(out)])
        growth = json.loads(out.read_text())["results"]["growth"]
        assert [g["value"] for g in growth] == [2, 3, 4, 5]

    def test_projected_label_for_separators(self, tmp_path):
        out = tmp_path / "m.json"
        run(["measures", "--generator", "linsep-circle", "--points", "6",
             "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["results"]["projected"] is True
        assert payload["results"]["d"]["value"] == 3


    @pytest.mark.parametrize("n", [1, 2])
    def test_circle_of_one_or_two_points(self, n, tmp_path):
        out = tmp_path / "m.json"
        assert run(["measures", "--generator", "linsep-circle", "--points", str(n),
                    "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["d"]["value"] == n
        assert results["growth"][-1]["value"] == 2 ** n

    def test_negative_growth_max_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run(["measures", "--growth-max", "-2", "--out", str(out)]) == 1
        assert "growth-max must be >= 0" in capsys.readouterr().err
        assert not out.exists()
        assert run(["measures", "--growth-max", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["growth"] == []


class TestDeterminism:
    def test_fixed_point_twice_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["fixed-point", "--generator", "thresholds", "--points", "16",
                "--kind", "loc", "--h", "1.0", "--n", "16", "--seed", "7"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_replay_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["measures", "--generator", "f1", "--d", "2", "--s", "5",
             "--out", str(a)])
        assert run(["replay", str(a), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_replay_ignores_budget_environment(self, tmp_path, monkeypatch):
        # no environment variable changes a search budget, so replay under
        # variables that once starved the hill climb reproduces the artifact
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["fixed-point", "--generator", "f1", "--d", "2", "--s", "12",
                    "--kind", "loc", "--h", "0.5", "--n", "24", "--search", "hill_climb",
                    "--seed", "0", "--out", str(a)]) == 0
        for name, value in (("RESTARTS", "1"), ("SWAP_TRIES", "0"),
                            ("PACK_NODE_BUDGET", "0")):
            monkeypatch.setenv(f"LOCENT_{name}", value)
        assert run(["replay", str(a), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_replay_with_target(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["erm-run", "--points", "8", "--target", "5", "--n", "8",
                    "--trials", "20", "--out", str(a)]) == 0
        header = a.read_text().splitlines()[0]
        assert json.loads(header[len("# config "):])["args"]["target"] == 5
        assert run(["replay", str(a), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        # an older artifact embeds the flag's string, and still replays
        a.write_text(a.read_text().replace('"target": 5', '"target": "5"'))
        assert run(["replay", str(a), "--out", str(b)]) == 0
        assert b.read_text().splitlines()[1:] == a.read_text().splitlines()[1:]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fixed_point_star(self, fmt, tmp_path):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        assert run(["fixed-point", "--kind", "star", "--points", "16", "--c", "0.5",
                    "--n", "16", "--format", fmt, "--out", str(a)]) == 0
        if fmt == "json":
            results = json.loads(a.read_text())["results"]
            assert results["exact"] and results["params"]["c"] == 0.5
        else:
            assert a.read_text().splitlines()[-1].endswith(" exact=True")
        assert run(["replay", str(a), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_replay_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["erm-run", "--generator", "thresholds", "--points", "8", "--h", "0.5",
             "--n", "8", "--trials", "20", "--seed", "3", "--out", str(a)])
        assert run(["replay", str(a), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_replay_f3_measures(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["measures", "--generator", "f3", "--d", "2", "--s", "6", "--grid", "4",
                    "--out", str(a)]) == 0
        assert json.loads(a.read_text())["results"]["class"] == {
            "generator": "f3", "d": 2, "s": 6, "grid": 4}
        assert run(["replay", str(a), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_artifact_without_out_goes_to_stdout(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        args = ["measures", "--points", "6", "--growth-max", "2"]
        assert run(args) == 0
        written = capsys.readouterr().out
        assert run(args + ["--out", str(a)]) == 0
        assert capsys.readouterr().out == ""
        assert written == a.read_text()


class TestConfigFile:
    def test_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[measures]\ngenerator = thresholds\npoints = 8\n")
        out = tmp_path / "m.json"
        assert run(["measures", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["args"]["points"] == 8
        # explicit flag wins over the file
        assert run(["measures", "--config", str(cfg), "--points", "4",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["args"]["points"] == 4

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[measures]\nbogus = 1\n")
        assert run(["measures", "--config", str(cfg)]) == 1

    def test_run_section_skips_keys_the_subcommand_lacks(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nseed = 7\n")
        out = tmp_path / "m.json"
        assert run(["measures", "--config", str(cfg), "--out", str(out)]) == 0
        assert "seed" not in json.loads(out.read_text())["config"]["args"]
        assert run(["packing", "--config", str(cfg), "--n", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["args"]["seed"] == 7

    def test_run_section_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nbogus = 1\n")
        assert run(["measures", "--config", str(cfg)]) == 1

    def test_missing_config(self):
        assert run(["measures", "--config", "/nonexistent.cfg"]) == 1

    def test_missing_section_header_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        assert run(["measures", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("locent measures: error: malformed config")

    def test_duplicate_key_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nseed = 3\nseed = 4\n")
        assert run(["packing", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("locent packing: error: malformed config")


class TestErrorPaths:
    def test_malformed_grid_no_partial_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["erm-sweep", "--generator", "thresholds", "--h-grid", "",
                    "--n-grid", "8", "--trials", "5", "--out", str(out)])
        assert code == 1 and not out.exists()

    def test_unknown_search(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["packing", "--search", "exactt", "--n", "3", "--points", "8",
                    "--out", str(out)]) == 1
        assert not out.exists()

    def test_unknown_search_in_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["erm-sweep", "--search", "exactt", "--n-grid", "8",
                    "--trials", "5", "--out", str(out)]) == 1
        assert not out.exists()

    def test_circle_sweep_without_points(self, tmp_path, capsys):
        # erm-sweep defaults --points to None, which only thresholds can take
        out = tmp_path / "sweep.csv"
        assert run(["erm-sweep", "--generator", "linsep-circle", "--n-grid", "8",
                    "--trials", "5", "--out", str(out)]) == 1
        assert "needs --points" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_fixed_point_format(self, tmp_path, capsys):
        out = tmp_path / "fp.yaml"
        assert run(["fixed-point", "--format", "yaml", "--points", "8", "--n", "8",
                    "--out", str(out)]) == 1
        assert not out.exists()
        assert "format" in capsys.readouterr().err

    def test_unknown_generator(self):
        assert run(["measures", "--generator", "mystery"]) == 1

    def test_missing_class_file(self):
        assert run(["measures", "--generator", "file",
                    "--class-file", "/nope.txt"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["measures", "--generator", "file"], "generator 'file' needs --class-file"),
        (["packing", "--kind", "ball"], "unknown packing kind 'ball'"),
        (["fixed-point", "--kind", "global"], "unknown fixed-point kind 'global'"),
    ], ids=["file-without-class-file", "packing-kind", "fixed-point-kind"])
    def test_usage_error_names_the_option(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 1
        assert f"locent {argv[0]}: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    # each path is a directory: an OSError, not a traceback
    @pytest.mark.parametrize("argv", [
        ["fixed-point", "--points", "8", "--n", "8", "--out", "{dir}"],
        ["measures", "--generator", "file", "--class-file", "{dir}"],
        ["replay", "{dir}"],
    ], ids=["fixed-point-out", "measures-class-file", "replay-artifact"])
    def test_unusable_path_is_a_usage_error(self, argv, tmp_path, capsys):
        assert run([arg.format(dir=tmp_path) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"locent {argv[0]}: error: ") and str(tmp_path) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["erm-run", "--trials", "-3"],
        ["erm-run", "--trials", "0"],
        ["star-theorem", "--generator", "f1", "--d", "2", "--s", "6", "--n", "8",
         "--trials", "0"],
        ["lower-bound-family", "--generator", "f1", "--d", "2", "--s", "6",
         "--h", "0.5", "--n-budget", "24", "--trials", "-1"],
    ], ids=["erm-run-negative", "erm-run-zero", "star-theorem-zero",
            "lower-bound-family-negative"])
    def test_empty_or_negative_trials(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 1
        assert "trials must be >=" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["erm-run", "--seed", "-1", "--out", str(out)]) == 1
        assert "--seed takes a nonnegative integer, not -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["packing", "fixed-point", "verify-lemmas", "erm-run",
                                     "erm-sweep", "lower-bound-family", "star-theorem",
                                     "sandwich"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_names_the_option(self, sub, source, tmp_path, capsys):
        # before this check, fixed-point and sandwich embedded a negative seed
        out = tmp_path / "out"
        if source == "flag":
            argv = [sub, "--seed", "-3"]
        else:
            ini = tmp_path / "run.ini"
            ini.write_text("[run]\nseed = -3\n")
            argv = [sub, "--config", str(ini)]
        assert run(argv + ["--out", str(out)]) == 1
        assert f"locent {sub}: error: --seed takes a nonnegative integer, not -3" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["erm-run", "erm-sweep"])
    def test_unknown_policy(self, sub, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run([sub, "--policy", "bogus", "--n-grid" if sub == "erm-sweep" else "--n",
                    "8", "--trials", "5", "--out", str(out)]) == 1
        assert "unknown policy 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k_loc", ["-1", "0", "nan", "inf"])
    def test_k_loc_must_be_finite_and_positive(self, k_loc, tmp_path, capsys):
        # a usage error, not a failing (or trivially passing) localization check
        out = tmp_path / "lemmas.json"
        assert run(["verify-lemmas", "--generator", "thresholds", "--points", "8",
                    "--n", "8", "--trials", "100", "--k-loc", k_loc,
                    "--out", str(out)]) == 1
        assert "k_loc must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_k_loc_runs_no_check(self, tmp_path, capsys, monkeypatch):
        from locent import processes
        ran = []
        for name in ("check_symmetrization_expectation", "check_contraction",
                     "check_localization_bound", "sudakov_check"):
            monkeypatch.setattr(processes, name, lambda *a, _n=name, **k: ran.append(_n))
        out = tmp_path / "lemmas.json"
        assert run(["verify-lemmas", "--k-loc", "-1", "--out", str(out)]) == 1
        assert "k_loc must be finite and positive, not -1.0" in capsys.readouterr().err
        assert ran == [] and not out.exists()

    @pytest.mark.parametrize("generator", ["thresholds", "f1"])
    def test_sweep_sample_size_below_one_runs_no_cell(self, generator, tmp_path, capsys,
                                                       monkeypatch):
        from locent import experiments
        monkeypatch.setattr(experiments, "_sweep_cell", lambda *a: pytest.fail("a cell ran"))
        out = tmp_path / "sweep.csv"
        assert run(["erm-sweep", "--generator", generator, "--n-grid", "8,0",
                    "--trials", "5", "--out", str(out)]) == 1
        assert "n_grid sample sizes must be >= 1, not 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["erm-run", "--h", "0"], "margin h must lie in (0, 1]"),
        (["verify-lemmas", "--h", "0"], "margin h must lie in (0, 1]"),
        (["measures", "--generator", "f3", "--grid", "0"], "F3 needs grid >= 1"),
    ], ids=["erm-run-h", "verify-lemmas-h", "f3-grid"])
    def test_zero_option_is_not_replaced_by_its_default(self, argv, message, tmp_path,
                                                        capsys):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 1

    def _artifact(self, tmp_path):
        a = tmp_path / "a.json"
        assert run(["packing", "--generator", "f1", "--d", "1", "--s", "4", "--n", "3",
                    "--search", "exact", "--out", str(a)]) == 0
        return a, json.loads(a.read_text())

    def _replay_fails(self, path, capsys, match):
        out = path.parent / "replayed.json"
        assert run(["replay", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("locent replay: error: ") and match in err
        assert not out.exists()

    def test_replay_missing_file(self, tmp_path, capsys):
        self._replay_fails(tmp_path / "nope.json", capsys, "nope.json")

    def test_replay_bad_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        self._replay_fails(bad, capsys, "Expecting property name")

    def test_replay_unknown_subcommand(self, tmp_path, capsys):
        a, payload = self._artifact(tmp_path)
        payload["config"]["subcommand"] = "frobnicate"
        a.write_text(json.dumps(payload))
        self._replay_fails(a, capsys, "no config with a known subcommand")

    def test_replay_negative_seed(self, tmp_path, capsys):
        a, payload = self._artifact(tmp_path)
        payload["config"]["args"]["seed"] = -1
        a.write_text(json.dumps(payload))
        self._replay_fails(a, capsys, "--seed takes a nonnegative integer, not -1")

    def test_replay_config_without_args(self, tmp_path, capsys):
        a, payload = self._artifact(tmp_path)
        del payload["config"]["args"]
        a.write_text(json.dumps(payload))
        self._replay_fails(a, capsys, "no config with a known subcommand")
        a.write_text(json.dumps([1, 2]))
        self._replay_fails(a, capsys, "no config with a known subcommand")

    def test_replay_unknown_option(self, tmp_path, capsys):
        a, payload = self._artifact(tmp_path)
        payload["config"]["args"]["serach"] = "exact"
        a.write_text(json.dumps(payload))
        self._replay_fails(a, capsys, "unknown packing option(s) in the embedded config: serach")

    def test_replay_unknown_search(self, tmp_path, capsys):
        a, payload = self._artifact(tmp_path)
        payload["config"]["args"]["search"] = "exactt"
        a.write_text(json.dumps(payload))
        self._replay_fails(a, capsys, "unknown search 'exactt'")

    @pytest.mark.parametrize("key, value, message", [
        ("trials", 20.9, "--trials takes an integer, not 20.9"),
        ("seed", True, "--seed takes an integer, not True"),
        ("h", False, "--h takes a number, not False"),
        ("seed", None, "--seed takes an integer, not None"),
        ("n", None, "--n takes an integer, not None"),
        ("h", None, "--h takes a number, not None"),
        ("policy", None, "--policy takes a value, not None"),
    ], ids=["float-trials", "bool-seed", "bool-h", "none-seed", "none-n", "none-h",
            "none-policy"])
    def test_replay_refuses_a_mistyped_option(self, key, value, message, tmp_path, capsys):
        a = tmp_path / "a.csv"
        assert run(["erm-run", "--points", "8", "--n", "8", "--trials", "20",
                    "--out", str(a)]) == 0
        header, rest = a.read_text().split("\n", 1)
        config = json.loads(header[len("# config "):])
        config["args"][key] = value
        a.write_text("# config " + json.dumps(config) + "\n" + rest)
        self._replay_fails(a, capsys, message)

    @pytest.mark.parametrize("argv, key", [
        (["erm-run", "--points", "8", "--n", "8", "--trials", "10"], "target"),
        (["fixed-point", "--points", "8", "--n", "8"], "h_prime"),
        (["erm-sweep", "--n-grid", "8", "--trials", "10"], "points"),
        (["measures", "--points", "6", "--growth-max", "2"], "class_file"),
    ], ids=["target", "h-prime", "sweep-points", "class-file"])
    def test_replay_keeps_none_where_it_is_the_default(self, argv, key, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(argv + ["--out", str(a)]) == 0
        header = a.read_text().splitlines()[0]
        config = (json.loads(header[len("# config "):]) if header.startswith("# config ")
                  else json.loads(a.read_text())["config"])
        assert config["args"][key] is None
        assert run(["replay", str(a), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["erm-run", "--points", "8", "--target", "99"],
        ["erm-run", "--points", "8", "--target", "-1"],
        ["star-theorem", "--s", "6", "--n", "8", "--trials", "5", "--target", "99"],
    ], ids=["erm-run-past-the-end", "erm-run-negative", "star-theorem-past-the-end"])
    def test_target_out_of_range(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 1
        assert "target row index out of range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_star_theorem_needs_a_sample(self, n, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["star-theorem", "--s", "6", "--n", n, "--trials", "5",
                    "--out", str(out)]) == 1
        assert "sample size must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_mistyped_flag_names_the_option(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert run(["erm-run", "--trials", "20.9", "--out", str(out)]) == 1
        assert "--trials takes an integer, not '20.9'" in capsys.readouterr().err
        assert not out.exists()


class TestPipelines:
    def test_class_file_roundtrip_through_cli(self, tmp_path):
        from locent.classes import make_star_class, save_class
        path = tmp_path / "cls.txt"
        save_class(make_star_class("F1", 1, 4), path)
        out = tmp_path / "m.json"
        assert run(["measures", "--generator", "file", "--class-file", str(path),
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["s"]["value"] == 4

    def test_erm_sweep_from_config_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[run]\nseed = 2\n"
                       "[erm-sweep]\ngenerator = thresholds\nh-grid = 1.0\n"
                       "n-grid = 8,16\ntrials = 25\n")
        out = tmp_path / "sweep.csv"
        assert run(["erm-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # config comment + header + two cells
        payload = json.loads(lines[0][len("# config "):])
        assert payload["args"]["seed"] == 2

    def test_packing_global(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["packing", "--generator", "f1", "--d", "1", "--s", "4",
                    "--kind", "global", "--gamma", "1", "--n", "4",
                    "--search", "exact", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["results"]["value"] == 4 and payload["results"]["exact"]

    def test_packing_local(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["packing", "--generator", "f1", "--d", "2", "--s", "6",
                    "--kind", "local", "--gamma", "2", "--n", "6", "--h", "1.0",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["results"]["value"] == 16  # frozen oracle value

    def test_capacity(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["capacity", "--generator", "f1", "--d", "1", "--s", "5",
                    "--target", "0", "--eps", "0.2,1.0", "--out", str(out)]) == 0
        vals = json.loads(out.read_text())["results"]["capacity"]
        assert vals[0]["tau"] == pytest.approx(5.0)
        assert vals[1]["tau"] == pytest.approx(1.0)

    def test_sandwich_exit_code(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["sandwich", "--generator", "thresholds", "--points", "16",
                    "--h", "1.0", "--n", "16", "--out", str(out)]) == 0

    def test_sandwich_writes_the_violating_row(self, tmp_path, monkeypatch):
        # a bound below every packing value: each scanned row violates it,
        # and the report names the last one
        from locent import geometry
        monkeypatch.setattr(geometry, "packing_log_vc_bound", lambda *a: -1.0)
        out = tmp_path / "s.json"
        assert run(["sandwich", "--points", "16", "--n", "16", "--out", str(out)]) == 2
        results = json.loads(out.read_text())["results"]
        assert not results["explicit_ok"]
        scan = geometry.gamma_loc(threshold_instance(16, 1.0).cls, 1.0, 1.0, 16).scan
        assert results["violating_row"] == json.loads(json.dumps(scan[-1]))

    def test_sandwich_of_vc_dimension_zero_is_a_usage_error(self, tmp_path, capsys):
        # one classifier shatters no point, and the sandwich forms divide by d
        path = tmp_path / "one.txt"
        path.write_text("points 3\n+-+\n")
        out = tmp_path / "s.json"
        assert run(["sandwich", "--generator", "file", "--class-file", str(path),
                    "--n", "4", "--out", str(out)]) == 1
        assert "d = 0" in capsys.readouterr().err and not out.exists()

    def test_verify_lemmas(self, tmp_path):
        out = tmp_path / "v.json"
        code = run(["verify-lemmas", "--generator", "thresholds", "--points", "10",
                    "--h", "0.5", "--c", "0.25", "--n", "10", "--trials", "120",
                    "--seed", "11", "--out", str(out)])
        payload = json.loads(out.read_text())
        checks = payload["results"]["checks"]
        assert code == 0 and all(c["pass"] for c in checks)
        assert {c["name"] for c in checks} == {
            "shifted_symmetrization", "excess_loss_contraction",
            "localization_bound", "sudakov_minoration"}

    def test_verify_lemmas_artifact_frozen(self, tmp_path):
        # every check here sums over all 2^12 sign vectors; a kernel that
        # shifts a single float32 rounding changes these bytes
        out = tmp_path / "v.json"
        assert run(["verify-lemmas", "--generator", "thresholds", "--points", "12",
                    "--n", "12", "--trials", "100", "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e1b133b24b7f2ee027fcf9cd6a3902be1123a7d4d690ba9b830d76ffaaca9aca")

    def test_erm_sweep_with_curves(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["erm-sweep", "--generator", "thresholds", "--h-grid", "1.0",
                    "--n-grid", "8,16", "--trials", "20", "--seed", "2",
                    "--out", str(out)]) == 0
        text = out.read_text().splitlines()
        assert text[0].startswith("# config ")
        assert text[1] == "h,n,trials,mean_excess,ci,gamma_loc,gamma_star,ratio,d,s,exact_flags"
        assert (tmp_path / "sweep.csv.h1.dat").exists()

    def test_lower_bound_family(self, tmp_path):
        out = tmp_path / "lb.json"
        assert run(["lower-bound-family", "--generator", "f1", "--d", "2", "--s", "6",
                    "--h", "0.5", "--n-budget", "24", "--seed", "1",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["results"]["family_size"] >= 2
        assert payload["results"]["kl_first_pair"] is not None

    def test_lower_bound_family_builds_the_family_once(self, tmp_path, monkeypatch):
        # one gamma_loc per distinct N (144, then 512), shared by the report;
        # the family is read off its scan, with no second search
        from locent import geometry
        calls = []
        solve = geometry.gamma_loc
        monkeypatch.setattr(geometry, "gamma_loc",
                            lambda *a, **k: calls.append(a[3]) or solve(*a, **k))
        monkeypatch.setattr(geometry, "local_packing_number",
                            lambda *a, **k: pytest.fail("second multiset search"))
        out = tmp_path / "lb.json"
        assert run(["lower-bound-family", "--generator", "f1", "--d", "2", "--s", "6",
                    "--h", "0.5", "--n-budget", "24", "--seed", "1", "--trials", "20",
                    "--out", str(out)]) == 0
        assert calls == [144, 512]
        assert "experiment" in json.loads(out.read_text())["results"]

    def test_erm_sweep_builds_the_class_once(self, tmp_path, monkeypatch):
        # the class is built before the cells, so its per-class memo serves
        # d and s once and gamma_star once per n across the h grid
        from locent import experiments, geometry
        calls = []
        for module, name in ((experiments, "vc_dimension"), (experiments, "star_number"),
                             (geometry, "gamma_star")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _fn=fn, _name=name, **k:
                                calls.append(_name) or _fn(*a, **k))
        assert run(["erm-sweep", "--generator", "f1", "--d", "2", "--s", "8",
                    "--h-grid", "1.0,0.5", "--n-grid", "16,32", "--trials", "5",
                    "--out", str(tmp_path / "sweep.csv")]) == 0
        assert Counter(calls) == {"vc_dimension": 1, "star_number": 1, "gamma_star": 2}
        # thresholds build one class per cell; equal patterns share the memo
        calls.clear()
        assert run(["erm-sweep", "--generator", "thresholds",
                    "--h-grid", "1.0,0.5", "--n-grid", "16,32", "--trials", "5",
                    "--out", str(tmp_path / "sweep.csv")]) == 0
        assert Counter(calls) == {"vc_dimension": 2, "star_number": 2, "gamma_star": 2}

    def test_erm_sweep_certifies_the_threshold_star_number(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["erm-sweep", "--generator", "thresholds", "--h-grid", "1.0",
                    "--n-grid", "16,32", "--trials", "5", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 2
        assert all("s_exact" in row.split(",")[-1].split("|") for row in rows)

    @pytest.mark.parametrize("policy", ["first_index", "seeded_random", "pessimistic"])
    def test_erm_run_matches_per_trial_oracle(self, tmp_path, policy):
        # few draws on 8 evenly weighted thresholds: many empirical ties, and
        # thresholds either side of the target tie in excess as well
        inst = threshold_instance(8, 0.5)
        out = tmp_path / "run.csv"
        assert run(["erm-run", "--generator", "thresholds", "--points", "8", "--h", "0.5",
                    "--n", "3", "--trials", "60", "--policy", policy, "--seed", "9",
                    "--out", str(out)]) == 0
        lines = ["n,seed,chosen,empirical_risk,excess,version_space_size,dis_mass"]
        for t in range(60):
            rep = oracles.ref_run_trial(inst, 3, policy, int(make_rng(9, t).integers(2 ** 31)))
            lines.append(f"{rep.n},{rep.seed},{rep.chosen},{rep.empirical_risk!r},"
                         f"{rep.excess!r},{rep.version_space_size},{rep.dis_mass!r}")
        assert out.read_text().splitlines()[1:] == lines

    def test_star_theorem(self, tmp_path):
        out = tmp_path / "st.json"
        assert run(["star-theorem", "--generator", "f2", "--d", "2", "--s", "8",
                    "--n", "16", "--trials", "80", "--seed", "4",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["results"]["mean_risk"] <= 4 * payload["results"]["bound"]
