import builtins
import hashlib
import io
import json
import os
import shutil
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import tubeloc.cli as cli
from helpers import recorded_requests, unordered_counts
from tubeloc.cli import main
from tubeloc.formats import box_record, load_collection

TINY_SYNTH = [
    "synth",
    "--num-classes", "2",
    "--videos-per-class", "2",
    "--frames-per-video", "40",
    "--num-distractors", "3",
    "--seed", "11",
]

FAST_RUN = [
    "--iterations", "2",
    "--k", "4",
    "--p", "2",
    "--alpha", "0.5",
    "--lambda", "2",
    "--theta", "-2",
    "--threads", "2",
]

AREA_MESSAGE = "frame size must be positive and finite, and so must its area"


@pytest.fixture(scope="module")
def tiny_collection(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_cli")
    assert main(TINY_SYNTH + ["--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def tiny_results(tiny_collection, tmp_path_factory):
    """The results directory of a short run on ``tiny_collection``."""
    out = tmp_path_factory.mktemp("tiny_results")
    assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                 "--out", str(out), "--iterations", "1", "--k", "2", "--threads", "1"]) == 0
    return out


def _input_hash(manifest: Path) -> str:
    """SHA-256 over the manifest, then each video's frames, tracks and truth
    files in manifest order."""
    digest = hashlib.sha256(manifest.read_bytes())
    for line in manifest.read_text().splitlines()[1:]:
        video = json.loads(line)
        for key in ("frames_file", "tracks_file", "truth_file"):
            if video.get(key):
                digest.update((manifest.parent / video[key]).read_bytes())
    return "sha256:" + digest.hexdigest()


class TestSynthCommand:
    def test_writes_expected_files(self, tiny_collection):
        names = {p.name for p in tiny_collection.iterdir()}
        assert "manifest.jsonl" in names
        assert "planted.jsonl" in names
        assert "synth_spec.json" in names
        assert any(name.endswith(".frames.jsonl") for name in names)

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path), "--prototype-separation-deg", "120"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ('{"videos_per_class": 2.5}', "videos_per_class must be an integer"),
        ('{"descriptor_noise": "0.1"}', "descriptor_noise must be a number"),
        ('{"signature_noise": NaN}', "signature_noise must be finite"),
    ])
    def test_mistyped_spec_file_exits_one(self, tmp_path, capsys, text, message):
        spec_path = tmp_path / "s.json"
        spec_path.write_text(text)
        code = main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec_path)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("digits,message", [
        (400, "descriptor_noise must be finite"),
        # past the integer digit limit of Pythons that have one
        (5000, "not valid JSON" if hasattr(sys, "get_int_max_str_digits")
         else "descriptor_noise must be finite"),
    ])
    def test_integer_too_large_for_a_float_exits_one(self, tmp_path, capsys, digits, message):
        spec_path = tmp_path / "s.json"
        spec_path.write_text('{"descriptor_noise": 1' + "0" * digits + "}")
        code = main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec_path)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--seed=-1"], "seed must be >= 0"),
        # noise times a normal draw would overflow to inf
        (["--descriptor-noise", "1e308"], "descriptor_noise must be >= 0 and <= 1e300"),
        (["--signature-noise", "1e308"], "signature_noise must be >= 0 and <= 1e300"),
    ], ids=["negative_seed", "descriptor_noise_overflow", "signature_noise_overflow"])
    def test_invalid_spec_value_exits_one(self, tmp_path, capsys, argv, message):
        code = main(TINY_SYNTH + ["--out", str(tmp_path / "o")] + argv)
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fields,flags,expected", [
        ({"num_distractors": 2}, ["--num-distractors", "4"], {"num_distractors": 4}),
        ({"prototype_separation_deg": 120.0}, ["--prototype-separation-deg", "45"],
         {"prototype_separation_deg": 45.0}),
        ({"prototype_separation_deg": 45.0}, ["--prototype-separation-deg", "120"], None),
    ], ids=["flag_overrides", "flag_mends_the_file", "flag_is_validated"])
    def test_spec_file_with_flag_override(self, tmp_path, capsys, fields, flags, expected):
        # as with run's --config: the file first, each flag given over it,
        # and then the result is validated
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps({"videos_per_class": 1, **fields}))
        out = tmp_path / "o"
        code = main(["synth", "--out", str(out), "--spec", str(spec_path),
                     "--frames-per-video", "21"] + flags)
        if expected is None:
            assert code == 1
            assert "error: prototype separation must be in" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == 0
            written = json.loads((out / "synth_spec.json").read_text())
            assert (written["videos_per_class"], written["frames_per_video"]) == (1, 21)
            assert {key: written[key] for key in expected} == expected

    @pytest.mark.parametrize("name,value", [
        ("object_track_grid", 4), ("background_clusters", 2), ("descriptor_dim", 32),
        ("signature_dim", 16), ("frame_width", 320.0), ("frame_height", 240.0),
        ("num_parts", 2), ("tracks_per_background_cluster", 12), ("object_scale", 0.3),
    ])
    def test_fixed_track_layout_is_not_a_field(self, tmp_path, capsys, name, value):
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps({name: value}))
        assert main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec_path)]) == 1
        assert f"error: unknown generator field '{name}'" in capsys.readouterr().err
        flag = "--" + name.replace("_", "-")
        assert main(["synth", "--out", str(tmp_path / "o"), flag, str(value)]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_out_exits_one(self, monkeypatch, capsys):
        monkeypatch.delenv("TUBELOC_OUT", raising=False)
        assert main(["synth"]) == 1
        assert "TUBELOC_OUT" in capsys.readouterr().err

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TUBELOC_OUT", str(tmp_path / "env_out"))
        assert main(TINY_SYNTH) == 0
        assert (tmp_path / "env_out" / "manifest.jsonl").is_file()


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "{out}", "--spec", "{dir}"],
    ["run", "--collection", "{manifest}", "--out", "{out}", "--config", "{dir}"],
    ["inspect", "{dir}"],
], ids=["synth_spec", "run_config", "inspect"])
def test_directory_as_json_file_exits_one(tiny_collection, tmp_path, capsys, argv):
    directory = tmp_path / "x.json"
    directory.mkdir()
    names = {"out": tmp_path / "o", "dir": directory,
             "manifest": tiny_collection / "manifest.jsonl"}
    assert main([arg.format(**names) for arg in argv]) == 1
    assert f"{directory}: cannot open file (Is a directory)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def tiny_results(tiny_collection, tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_results")
    assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                 "--out", str(out), "--iterations", "1", "--k", "2", "--threads", "1"]) == 0
    return out


@pytest.mark.parametrize("command", ["synth", "run", "eval"])
def test_uncreatable_out_exits_one(tiny_collection, tiny_results, tmp_path, capsys, command):
    manifest = str(tiny_collection / "manifest.jsonl")
    argv = {
        "synth": TINY_SYNTH,
        "run": ["run", "--collection", manifest, "--iterations", "1", "--k", "2",
                "--threads", "1"],
        "eval": ["eval", "--collection", manifest, "--results", str(tiny_results)],
    }[command]
    blocker = tmp_path / "afile"
    blocker.write_text("")
    assert main(argv + ["--out", str(blocker / "x")]) == 1
    assert f"{blocker / 'x'}: cannot create directory" in capsys.readouterr().err


class TestRunCommand:
    @pytest.fixture
    def no_load(self, monkeypatch):
        def fail(*_args, **_kwargs):
            raise AssertionError("the collection was loaded")

        monkeypatch.setattr(cli, "load_collection", fail)

    def test_uncreatable_out_fails_before_loading(self, tiny_collection, tmp_path, capsys,
                                                  no_load):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(blocker / "x")]) == 1
        assert f"{blocker / 'x'}: cannot create directory" in capsys.readouterr().err
        # with --snapshots, a regular file at OUT/snapshots fails as early
        out = tmp_path / "o"
        out.mkdir()
        (out / "snapshots").write_text("")
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--snapshots"]) == 1
        assert f"{out / 'snapshots'}: cannot create directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["snapshots"]

    def test_missing_out_fails_before_loading(self, tiny_collection, monkeypatch, capsys,
                                              no_load):
        monkeypatch.delenv("TUBELOC_OUT", raising=False)
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl")]) == 1
        assert "TUBELOC_OUT" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--hough-translation-bins", "--hough-scale-bins"])
    def test_offset_grid_flags_removed(self, tiny_collection, tmp_path, capsys, flag):
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), flag, "16"])
        assert code == 1
        assert f"unrecognized arguments: {flag} 16" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_and_eval(self, tiny_collection, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--snapshots"] + FAST_RUN)
        assert code == 0
        assert (out / "tubes.jsonl").is_file()
        assert (out / "neighbors.jsonl").is_file()
        assert (out / "run_manifest.json").is_file()
        snapshots = sorted(p.name for p in (out / "snapshots").iterdir())
        assert snapshots == ["iter_001", "iter_002"]

        report_dir = tmp_path / "report"
        code = main(["eval", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--results", str(out), "--per-iteration", "--out", str(report_dir)])
        assert code == 0
        err = capsys.readouterr().err
        assert "CorLoc" in err
        assert "iteration" in err
        assert (report_dir / "report.jsonl").is_file()
        assert (report_dir / "report.txt").is_file()

    def test_reference_parameter_flags(self, tiny_collection, tmp_path):
        out = tmp_path / "reference"
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--iterations", "5", "--k", "10", "--p", "5",
                     "--alpha", "0.5", "--lambda", "2", "--theta", "-2"])
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["alpha"] == 0.5
        assert manifest["config"]["lambda"] == 2.0
        assert manifest["config"]["theta"] == -2.0
        assert manifest["config"]["k_neighbors"] == 10
        assert manifest["config"]["p_tubes"] == 5
        assert manifest["config"]["iterations"] == 5

    def test_vanishing_affinity_runs(self, tiny_collection, tmp_path):
        # every affinity between distinct descriptors is exp(-inf) = 0
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), "--iterations", "2", "--k", "2",
                     "--threads", "1", "--affinity-gamma", "1e308"])
        assert code == 0

    def test_single_iteration_single_snapshot(self, tiny_collection, tmp_path):
        out = tmp_path / "one"
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--snapshots", "--iterations", "1",
                     "--k", "2", "--threads", "1"])
        assert code == 0
        assert [p.name for p in sorted((out / "snapshots").iterdir())] == ["iter_001"]

    @pytest.mark.parametrize("iterations, fixed_point", [(3, None), (5, 3)])
    def test_manifest_records_fixed_point_and_match_counts(self, tiny_collection, tmp_path,
                                                           monkeypatch, iterations, fixed_point):
        # the tiny collection repeats iteration 2 in iteration 3, which is a
        # fixed point only when iteration 3 is not the last
        out = tmp_path / "res"
        requests = recorded_requests(monkeypatch)
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--iterations", str(iterations), "--k", "4",
                     "--p", "2", "--threads", "1"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["fixed_point"] == fixed_point
        counts = manifest["match_counts"]
        assert [c["iteration"] for c in counts] == [1, 2, 3]
        # tables matched: the distinct unordered keys no earlier request
        # named; the repeat's pools and masks are iteration 2's, so it asks
        # for nothing and counts each of iteration 2's keys reused
        assert len(requests) == 4
        expected = unordered_counts(requests) + [(0, len(keys)) for keys in requests[2:]]
        assert [tuple(c.values()) for c in counts] == [
            (i // 2 + 1, *expected[i], *expected[i + 1]) for i in range(0, len(expected), 2)]
        assert counts[0]["retrieval_matched"] == counts[0]["retrieval_reused"] == 0
        assert counts[0]["saliency_matched"] > 0
        assert counts[2]["saliency_matched"] == 0
        assert counts[2]["saliency_reused"] == len(requests[3]) > 0

    def test_snapshots_after_a_fixed_point(self, tiny_collection, tmp_path):
        # the tiny collection repeats iteration 2 in iteration 3: iterations 3
        # and 4 are written with iteration 2's state, and the final one with
        # its first tubes, the run's results
        out = tmp_path / "res"
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--iterations", "5", "--k", "4", "--p", "2",
                     "--threads", "1", "--snapshots"]) == 0
        snapshots = out / "snapshots"
        assert sorted(p.name for p in snapshots.iterdir()) == [f"iter_00{i}" for i in range(1, 6)]

        def read(i, name):
            return (snapshots / f"iter_00{i}" / name).read_bytes()

        for name in ("tubes.jsonl", "neighbors.jsonl"):
            assert read(3, name) == read(4, name) == read(2, name)
        assert read(5, "tubes.jsonl") == (out / "tubes.jsonl").read_bytes() != \
            read(2, "tubes.jsonl")
        assert read(5, "neighbors.jsonl") == (out / "neighbors.jsonl").read_bytes() == \
            read(2, "neighbors.jsonl")

    def test_missing_manifest_exits_one(self, tmp_path, capsys):
        code = main(["run", "--collection", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_value_exits_one(self, tiny_collection, tmp_path, capsys):
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), "--theta", "0.5"])
        assert code == 1
        assert "theta" in capsys.readouterr().err

    def test_negative_number_in_exponent_form_is_a_value(self, tiny_collection, tmp_path):
        # "--theta -1e3" gives --theta its value, as "--theta=-1e3" does
        for name, theta in [("spaced", ["--theta", "-1e3"]), ("joined", ["--theta=-1e3"])]:
            assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                         "--out", str(tmp_path / name), "--iterations", "2", "--k", "2",
                         "--threads", "1", *theta]) == 0
        manifest = json.loads((tmp_path / "spaced" / "run_manifest.json").read_text())
        assert manifest["config"]["theta"] == -1000.0
        for name in ("tubes.jsonl", "neighbors.jsonl"):
            assert (tmp_path / "spaced" / name).read_bytes() == \
                (tmp_path / "joined" / name).read_bytes()

    def test_negative_number_in_exponent_form_is_validated(self, tiny_collection, tmp_path,
                                                           capsys):
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), "--alpha", "-1e3"])
        assert code == 1
        assert "error: alpha must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,value", [("--theta", "nan"), ("--lambda", "inf")])
    def test_non_finite_flag_exits_one(self, tiny_collection, tmp_path, capsys, flag, value):
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), flag, value])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
    @pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
    def test_negative_non_finite_is_a_value(self, tiny_collection, tmp_path, capsys,
                                            value, joined):
        # "--theta -inf" gives --theta its value, as "--theta=-inf" does, so
        # both fail validation rather than parsing
        theta = [f"--theta={value}"] if joined else ["--theta", value]
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), *theta])
        assert code == 1
        err = capsys.readouterr().err
        assert "theta must be finite" in err
        assert "expected one argument" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_non_positive_threads_exits_one(self, tiny_collection, tmp_path, capsys, threads):
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), "--threads", threads])
        assert code == 1
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("data,message", [
        ({"alpha": "0.5"}, "alpha must be a number"),
        ({"k_neighbors": 2.5}, "k_neighbors must be an integer"),
        ({"rng_seed": 3}, "unknown config field"),
        ({"hough_scale_bins": 7}, "unknown config field 'hough_scale_bins'"),
    ])
    def test_mistyped_config_file_exits_one(self, tiny_collection, tmp_path, capsys,
                                            data, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), "--config", str(config_path)])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_integer_too_large_for_a_float_exits_one(self, tiny_collection, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"alpha": 1' + "0" * 400 + "}")
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), "--config", str(config_path)])
        assert code == 1
        assert "alpha must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind,key,value,message", [
        ("frame", "frame_index", "x", "frame_index must be an integer"),
        ("frame", "width", "abc", "width must be a number"),
        ("frame", "width", [1], "width must be a number"),
        ("frame", "signature", "abc", "signature must be a list of numbers"),
        ("proposal", "id", {"a": 1}, "id must be an integer"),
        ("proposal", "box", [0, "a", 1, 1], "box coordinate must be a number"),
        ("proposal", "box", [0, 0, -1, 5], "box sides must be positive, got -1.0x5.0"),
    ])
    def test_mistyped_collection_field_exits_one(self, tiny_collection, tmp_path, capsys,
                                                 kind, key, value, message):
        target = tmp_path / "collection"
        shutil.copytree(tiny_collection, target)
        frames_file = sorted(target.glob("*.frames.jsonl"))[0]
        lines = frames_file.read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if json.loads(line)["type"] == kind)
        record = json.loads(lines[index])
        record[key] = value
        lines[index] = json.dumps(record)
        frames_file.write_text("\n".join(lines) + "\n")
        code = main(["run", "--collection", str(target / "manifest.jsonl"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{frames_file}:{index + 1}: " in err
        assert err.count(str(frames_file)) == 1
        assert message in err

    @pytest.mark.parametrize("key,value", [("width", "NaN"), ("height", "Infinity"),
                                           ("width", "-Infinity")])
    def test_non_finite_frame_size_exits_one(self, tiny_collection, tmp_path, capsys,
                                             key, value):
        target = tmp_path / "collection"
        shutil.copytree(tiny_collection, target)
        frames_file = sorted(target.glob("*.frames.jsonl"))[0]
        lines = frames_file.read_text().splitlines()
        record = json.loads(lines[0])
        assert record["type"] == "frame"
        lines[0] = json.dumps(dict(record, **{key: float(value)}))  # NaN, Infinity
        frames_file.write_text("\n".join(lines) + "\n")
        code = main(["run", "--collection", str(target / "manifest.jsonl"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{frames_file}:1: frame size must be positive and finite" in err

    @pytest.mark.parametrize("suffix,key,value", [(".frames.jsonl", "id", 2**63),
                                                  (".frames.jsonl", "id", -2**63 - 1),
                                                  (".tracks.jsonl", "cluster", 2**63)])
    def test_integer_beyond_64_bits_exits_one(self, tiny_collection, tmp_path, capsys,
                                              suffix, key, value):
        # the value loads as a Python int but overflows the int64 id arrays
        target = tmp_path / "collection"
        shutil.copytree(tiny_collection, target)
        path = sorted(target.glob(f"*{suffix}"))[0]
        lines = path.read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if key in json.loads(line))
        lines[index] = json.dumps(dict(json.loads(lines[index]), **{key: value}))
        path.write_text("\n".join(lines) + "\n")
        code = main(["run", "--collection", str(target / "manifest.jsonl"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{path}:{index + 1}: {key} must be an integer within 64 bits" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("suffix", [".frames.jsonl", ".tracks.jsonl", ".truth.jsonl"])
    def test_non_utf8_sidecar_exits_one(self, tiny_collection, tmp_path, capsys, suffix):
        target = tmp_path / "collection"
        shutil.copytree(tiny_collection, target)
        path = sorted(target.glob(f"*{suffix}"))[0]
        lines = path.read_bytes().splitlines()
        lines[-1] = lines[-1].replace(b'"type"', b'"ty\xffpe"')
        path.write_bytes(b"\n".join(lines) + b"\n")
        code = main(["run", "--collection", str(target / "manifest.jsonl"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{path}:{len(lines)}: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["--collection", "frames_file", "tracks_file",
                                       "truth_file"])
    @pytest.mark.parametrize("name,reason", [(int("9" * 400), "File name too long"),
                                             ("a\0b", "embedded null byte")],
                             ids=["too_long", "nul"])
    def test_unopenable_file_name_exits_one(self, tiny_collection, tmp_path, capsys,
                                            where, name, reason):
        target = tmp_path / "collection"
        shutil.copytree(tiny_collection, target)
        manifest = target / "manifest.jsonl"
        if where == "--collection":
            manifest = target / str(name)
        else:
            lines = manifest.read_text().splitlines()
            lines[1] = json.dumps(dict(json.loads(lines[1]), **{where: name}))
            manifest.write_text("\n".join(lines) + "\n")
        code = main(["run", "--collection", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{target / str(name)}: cannot open file ({reason})" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", [["--alpha", "1e308"],
                                         ["--lambda", "1e308", "--theta=-1e308"]],
                             ids=["alpha", "lambda_theta"])
    def test_overflowing_weights_exit_one(self, tiny_collection, tmp_path, capsys, weights):
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), "--threads", "1"] + weights)
        assert code == 1
        err = capsys.readouterr().err
        assert "error: alpha=" in err
        assert "can overflow a tube objective over 2 key frames" in err
        assert list((tmp_path / "o").iterdir()) == []

    def test_overflowing_frame_area_exits_one(self, tiny_collection, tmp_path, capsys):
        target = tmp_path / "collection"
        shutil.copytree(tiny_collection, target)
        frames_file = sorted(target.glob("*.frames.jsonl"))[0]
        lines = frames_file.read_text().splitlines()
        lines[0] = json.dumps(dict(json.loads(lines[0]), width=1e308))
        frames_file.write_text("\n".join(lines) + "\n")
        code = main(["run", "--collection", str(target / "manifest.jsonl"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{frames_file}:1: {AREA_MESSAGE}" in capsys.readouterr().err

    def test_key_frame_without_proposals_exits_one(self, tiny_collection, tmp_path, capsys):
        target = tmp_path / "collection"
        shutil.copytree(tiny_collection, target)
        frames_file = sorted(target.glob("*.frames.jsonl"))[0]
        records = [json.loads(line) for line in frames_file.read_text().splitlines()]
        kept = [r for r in records if r["type"] != "proposal" or r["frame_index"] != 20]
        frames_file.write_text("".join(json.dumps(r) + "\n" for r in kept))
        manifest = target / "manifest.jsonl"
        code = main(["run", "--collection", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 1
        video_id = frames_file.name.removesuffix(".frames.jsonl")
        assert (f"{manifest}: key frame 20 of video {video_id} has no proposals"
                in capsys.readouterr().err)

    def test_signature_whose_distances_overflow_exits_one(self, tiny_collection, tmp_path,
                                                          capsys):
        # bootstrap distances of 1e300 entries overflow: the run names the key
        # frame at the manifest and writes nothing, rather than ranking -inf
        target = tmp_path / "collection"
        shutil.copytree(tiny_collection, target)
        frames_file = sorted(target.glob("*.frames.jsonl"))[0]
        records = [json.loads(line) for line in frames_file.read_text().splitlines()]
        key_frame = next(r for r in records if r["type"] == "frame" and r["frame_index"] == 20)
        key_frame["signature"] = [1e300] * len(key_frame["signature"])
        frames_file.write_text("".join(json.dumps(r) + "\n" for r in records))
        manifest = target / "manifest.jsonl"
        out = tmp_path / "o"
        code = main(["run", "--collection", str(manifest), "--out", str(out), "--iterations",
                     "1", "--snapshots"])
        assert code == 1
        video_id = frames_file.name.removesuffix(".frames.jsonl")
        assert (f"error: {manifest}: key frame 20 of video {video_id} has a signature entry "
                "so large that its squared distances can overflow") in capsys.readouterr().err
        assert not (out / "tubes.jsonl").exists()
        assert list(out.iterdir()) == []

    def test_box_area_underflow_exits_one(self, tmp_path, capsys):
        # the log-area location of a box whose area ratio to its frame is 0
        # would be -inf and turn votes, scores and the DP into NaN: the run
        # names the proposal at its file and line before any compute
        collection = tmp_path / "collection"
        assert main(["synth", "--videos-per-class", "2", "--frames-per-video", "41",
                     "--out", str(collection)]) == 0
        capsys.readouterr()
        frames_file = sorted(collection.glob("*.frames.jsonl"))[0]
        records = [json.loads(line) for line in frames_file.read_text().splitlines()]
        box = next(r for r in records if r["type"] == "proposal")["box"]
        box[2:] = [1e-200, 1e-200]
        frames_file.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "o"
        code = main(["run", "--collection", str(collection / "manifest.jsonl"), "--out",
                     str(out), "--iterations", "1", "--snapshots"])
        assert code == 1
        err = capsys.readouterr().err
        frames_file = sorted(collection.glob("*.frames.jsonl"))[0]
        video_id = frames_file.name.removesuffix(".frames.jsonl")
        records = [json.loads(line) for line in frames_file.read_text().splitlines()]
        line, record = next((i, r) for i, r in enumerate(records, start=1)
                            if r["type"] == "proposal" and r["box"][2] * r["box"][3] == 0)
        assert err == (f"error: {frames_file}:{line}: proposal {record['id']} box area "
                       f"underflows against frame {record['frame_index']} of video "
                       f"{video_id}\n")
        assert not (out / "tubes.jsonl").exists()
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("change", ["edit", "delete"])
    def test_input_hash_is_of_the_loaded_bytes(self, tiny_collection, tmp_path, monkeypatch,
                                               change):
        # a sidecar that changes during the run does not change the recorded hash
        target = tmp_path / "collection"
        shutil.copytree(tiny_collection, target)
        manifest = target / "manifest.jsonl"
        loaded_hash = _input_hash(manifest)
        truth_file = sorted(target.glob("*.truth.jsonl"))[0]
        run_discovery = cli.run_discovery

        def changing_run(*args, **kwargs):
            if change == "edit":
                truth_file.write_text(truth_file.read_text() + "\n")
            else:
                truth_file.unlink()
            return run_discovery(*args, **kwargs)

        monkeypatch.setattr(cli, "run_discovery", changing_run)
        out = tmp_path / "o"
        assert main(["run", "--collection", str(manifest), "--out", str(out),
                     "--iterations", "1", "--k", "2", "--threads", "1"]) == 0
        assert json.loads((out / "run_manifest.json").read_text())["input_hash"] == loaded_hash
        if change == "edit":
            assert _input_hash(manifest) != loaded_hash

    def test_reads_each_input_file_once(self, tiny_collection, tmp_path, monkeypatch):
        inputs = {path.resolve() for path in tiny_collection.glob("*.jsonl")
                  if path.name != "planted.jsonl"}
        opens = Counter()
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file).resolve() in inputs:
                opens[Path(file).resolve()] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)  # what pathlib opens files with
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), "--iterations", "1", "--k", "2",
                     "--threads", "1"]) == 0
        assert len(inputs) == 1 + 3 * 4  # the manifest, then frames, tracks, truth per video
        assert opens == {path: 1 for path in inputs}

    @pytest.mark.parametrize("version", ["banana", 2])
    def test_unknown_format_version_exits_one(self, tiny_collection, tmp_path, capsys,
                                              version):
        target = tmp_path / "collection"
        shutil.copytree(tiny_collection, target)
        manifest = target / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[0] = json.dumps(dict(json.loads(lines[0]), format_version=version))
        manifest.write_text("\n".join(lines) + "\n")
        code = main(["run", "--collection", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 1
        assert (f"{manifest}:1: format_version must be 1, got {version!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o" / "tubes.jsonl").exists()

    def test_outputs_identical_across_threads(self, tiny_collection, tmp_path):
        outputs = []
        for threads in ("1", "2", "3"):
            out = tmp_path / threads
            code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                         "--out", str(out)] + FAST_RUN + ["--threads", threads])
            assert code == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("tubes.jsonl", "neighbors.jsonl")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_huge_declared_length_fails_in_bounded_memory(self, tiny_collection, tmp_path,
                                                          capsys):
        # the missing-frame check must not grow with the declared length
        target = tmp_path / "collection"
        shutil.copytree(tiny_collection, target)
        manifest = target / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        video = json.loads(lines[1])
        lines[1] = json.dumps(dict(video, num_frames=10**9))
        manifest.write_text("\n".join(lines) + "\n")
        frames_file = target / video["frames_file"]
        count = sum('"type": "frame"' in line for line in frames_file.read_text().splitlines())
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["run", "--collection", str(manifest), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert time.perf_counter() - start < 10
        assert peak < 16 * 2**20
        missing = [count, count + 1, count + 2]
        assert (f"{frames_file}: video {video['video_id']} is missing frame records "
                f"(first missing: {missing})") in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tiny_collection, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"iterations": 1, "k_neighbors": 2, "lambda": 1.0}))
        out = tmp_path / "cfg_out"
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--config", str(config_path), "--p", "2",
                     "--threads", "1"])
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["iterations"] == 1
        assert manifest["config"]["k_neighbors"] == 2
        assert manifest["config"]["lambda"] == 1.0
        assert manifest["config"]["p_tubes"] == 2
        assert manifest["input_hash"].startswith("sha256:")


class TestEvalCommand:
    def test_missing_prediction_exits_one(self, tiny_collection, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--iterations", "1", "--k", "2",
                     "--threads", "1"]) == 0
        tubes = (out / "tubes.jsonl").read_text().splitlines()
        (out / "tubes.jsonl").write_text("\n".join(tubes[1:]) + "\n")
        code = main(["eval", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--results", str(out)])
        assert code == 1
        assert "no predicted tube" in capsys.readouterr().err

    @pytest.mark.parametrize("regions", [5, "abc", None, {"0": [0, 1, [0, 0, 1, 1]]}])
    def test_regions_not_a_list_exits_one(self, tiny_collection, tmp_path, capsys, regions):
        out = tmp_path / "res"
        out.mkdir()
        vid = json.loads((tiny_collection / "manifest.jsonl").read_text().splitlines()[1])
        record = {"type": "tube", "video_id": vid["video_id"], "rank": 0, "score": 1.0,
                  "regions": regions}
        (out / "tubes.jsonl").write_text(json.dumps(record) + "\n")
        (out / "neighbors.jsonl").write_text("")
        code = main(["eval", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--results", str(out)])
        assert code == 1
        assert f"{out / 'tubes.jsonl'}:1: regions must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        ({"regions": [[0, 999999, [0, 0, 1, 1]]]}, "has no proposal 999999"),
        ({"regions": [[7777, 0, [0, 0, 1, 1]]]}, "missing frame 7777"),
        ({"video_id": "nosuch"}, "unknown video nosuch"),
    ], ids=["proposal", "key_frame", "video"])
    def test_region_not_in_collection_exits_one(self, tiny_collection, tmp_path, capsys,
                                                change, message):
        collection = load_collection(tiny_collection / "manifest.jsonl")
        records = [{"type": "tube", "video_id": vid, "rank": 0, "score": 1.0,
                    "regions": [[0, proposal.id, box_record(proposal.box)]]}
                   for vid, video in sorted(collection.videos.items())
                   for proposal in video.frames[0].proposals[:1]]
        records[1].update(change)
        out = tmp_path / "res"
        out.mkdir()
        (out / "tubes.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        (out / "neighbors.jsonl").write_text("")
        code = main(["eval", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--results", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{out / 'tubes.jsonl'}:2: " in err and message in err

    def test_neighbors_not_a_list_exits_one(self, tiny_collection, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--iterations", "1", "--k", "2",
                     "--threads", "1"]) == 0
        path = out / "neighbors.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = json.dumps(dict(json.loads(lines[0]), neighbors=5))
        path.write_text("\n".join(lines) + "\n")
        code = main(["eval", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--results", str(out)])
        assert code == 1
        assert f"{path}:1: neighbors must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("name, keys, value, message", [
        ("neighbors.jsonl", ["neighbors", 0, 2], float("nan"),
         "neighbor similarity must be a finite number, got nan"),
        ("tubes.jsonl", ["score"], float("inf"), "score must be a finite number, got inf"),
        ("neighbors.jsonl", ["neighbors", 0, 0], "zz_unknown",
         "of video zz_unknown is not in the collection"),
        ("neighbors.jsonl", ["video_id"], "nope", "query frame 0 of video nope is not in the "
                                                  "collection"),
        ("tubes.jsonl", ["regions", 0, 2], [0, 0, 1, 1], "region box [0, 0, 1, 1] in frame 0 "
                                                         "is not proposal "),
        ("tubes.jsonl", ["regions"], [], "selects no regions"),
    ], ids=["nan_similarity", "infinite_score", "unknown_neighbor", "unknown_query",
            "region_box", "no_regions"])
    def test_result_value_outside_collection_or_reals_exits_one(
            self, tiny_collection, tiny_results, tmp_path, capsys, name, keys, value, message):
        out = tmp_path / "res"
        shutil.copytree(tiny_results, out)
        path = out / name
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        target = record
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        lines[0] = json.dumps(record)  # writes NaN and Infinity as Python's json reads them
        path.write_text("\n".join(lines) + "\n")
        code = main(["eval", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--results", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path}:1: " in err and message in err

    def test_repeated_neighbor_exits_one(self, tiny_collection, tiny_results, tmp_path, capsys):
        out = tmp_path / "res"
        shutil.copytree(tiny_results, out)
        path = out / "neighbors.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["neighbors"].append(record["neighbors"][0])
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        code = main(["eval", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--results", str(out)])
        assert code == 1
        nvid, nt, _sim = record["neighbors"][0]
        assert f"{path}:1: neighbor frame {nt} of video {nvid} is repeated" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("snapshot", [None, "iter_001"])
    def test_tube_missing_a_query_key_frame_exits_one(self, tiny_collection, tmp_path, capsys,
                                                      snapshot):
        # every tube cut to its first region: each video's other key frames
        # are queries in neighbors.jsonl but have no region
        out = tmp_path / "res"
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--iterations", "2", "--k", "2", "--threads", "1",
                     "--snapshots"]) == 0
        results = out if snapshot is None else out / "snapshots" / snapshot
        path = results / "tubes.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            record["regions"] = record["regions"][:1]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        code = main(["eval", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--results", str(out), "--per-iteration"])
        assert code == 1
        assert (f"{path}:1: tube for video {records[0]['video_id']} selects no region at "
                "key frame 20") in capsys.readouterr().err

    def test_unannotated_collection_reports_no_corloc(self, tiny_collection, tmp_path,
                                                       capsys):
        # with no annotated video, CorLoc is undefined: no row, no per-iteration
        # line or record, while every snapshot is still read and validated
        target = tmp_path / "collection"
        shutil.copytree(tiny_collection, target)
        manifest = target / "manifest.jsonl"
        records = [json.loads(line) for line in manifest.read_text().splitlines()]
        for record in records:
            record.pop("truth_file", None)
        manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
        for truth_file in target.glob("*.truth.jsonl"):
            truth_file.unlink()
        out = tmp_path / "res"
        assert main(["run", "--collection", str(manifest), "--out", str(out), "--iterations",
                     "2", "--k", "2", "--threads", "1", "--snapshots"]) == 0
        capsys.readouterr()
        report_dir = tmp_path / "report"
        assert main(["eval", "--collection", str(manifest), "--results", str(out),
                     "--per-iteration", "--out", str(report_dir)]) == 0
        assert "CorLoc" not in capsys.readouterr().err
        assert (report_dir / "report.jsonl").read_text() == ""
        assert "CorLoc" not in (report_dir / "report.txt").read_text()

        tubes = out / "snapshots" / "iter_001" / "tubes.jsonl"
        tubes.write_text("{not json\n")
        assert main(["eval", "--collection", str(manifest), "--results", str(out),
                     "--per-iteration"]) == 1
        assert f"{tubes}:1:" in capsys.readouterr().err

    def test_per_iteration_requires_snapshots(self, tiny_collection, tmp_path, capsys):
        out = tmp_path / "nosnap"
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--iterations", "1", "--k", "2",
                     "--threads", "1"]) == 0
        code = main(["eval", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--results", str(out), "--per-iteration"])
        assert code == 1
        assert "--snapshots" in capsys.readouterr().err

    def _run(self, tiny_collection, out, iterations, *flags):
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--iterations", str(iterations), "--k", "2",
                     "--threads", "1", *flags]) == 0

    def test_a_shorter_run_drops_the_longer_runs_snapshots(self, tiny_collection, tmp_path,
                                                          capsys):
        out = tmp_path / "res"
        self._run(tiny_collection, out, 4, "--snapshots")
        self._run(tiny_collection, out, 2, "--snapshots")
        assert sorted(p.name for p in (out / "snapshots").iterdir()) == ["iter_001", "iter_002"]
        capsys.readouterr()
        assert main(["eval", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--results", str(out), "--per-iteration", "--out", str(tmp_path / "r")]) == 0
        rows = capsys.readouterr().err.split("iteration  CorLoc\n")[1].splitlines()
        assert [int(row.split()[0]) for row in rows] == [1, 2]
        records = [json.loads(line) for line in (tmp_path / "r" / "report.jsonl").open()]
        assert [r["iteration"] for r in records if r["type"] == "iteration_corloc"] == [1, 2]

    def test_a_run_without_snapshots_drops_every_snapshot(self, tiny_collection, tmp_path,
                                                          capsys):
        out = tmp_path / "res"
        self._run(tiny_collection, out, 2, "--snapshots")
        self._run(tiny_collection, out, 2)
        assert not (out / "snapshots").exists()
        code = main(["eval", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--results", str(out), "--per-iteration"])
        assert code == 1
        assert "--snapshots" in capsys.readouterr().err

    def test_snapshot_pruning_removes_only_run_artifacts(self, tiny_collection, tmp_path):
        out = tmp_path / "res"
        self._run(tiny_collection, out, 3, "--snapshots")
        snapshots = out / "snapshots"
        (snapshots / "iter_003" / "notes.txt").write_text("kept\n")
        (snapshots / "iter_01").mkdir()  # also iteration 1 to eval, but not this run's name
        (snapshots / "iter_01" / "tubes.jsonl").write_text("")
        (snapshots / "latest").mkdir()
        (snapshots / "latest" / "tubes.jsonl").write_text("kept\n")
        self._run(tiny_collection, out, 1, "--snapshots")
        assert sorted(p.name for p in snapshots.iterdir()) == ["iter_001", "iter_003", "latest"]
        assert sorted(p.name for p in (snapshots / "iter_001").iterdir()) == \
            ["neighbors.jsonl", "tubes.jsonl"]
        assert [p.name for p in (snapshots / "iter_003").iterdir()] == ["notes.txt"]
        assert (snapshots / "latest" / "tubes.jsonl").read_text() == "kept\n"
        self._run(tiny_collection, out, 1)
        assert sorted(p.name for p in snapshots.iterdir()) == ["iter_003", "latest"]

    def test_stray_snapshot_entry_exits_one(self, tiny_collection, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--iterations", "1", "--k", "2", "--threads", "1",
                     "--snapshots"]) == 0
        stray = out / "snapshots" / "latest"
        shutil.copytree(out / "snapshots" / "iter_001", stray)
        code = main(["eval", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--results", str(out), "--per-iteration"])
        assert code == 1
        assert f"{stray}: snapshot entry is not named iter_<n>" in capsys.readouterr().err


class TestInspectCommand:
    def test_summarizes_jsonl(self, tiny_collection, capsys):
        assert main(["inspect", str(tiny_collection / "manifest.jsonl")]) == 0
        err = capsys.readouterr().err
        assert "collection: 1" in err
        assert "video: 4" in err

    def test_previews_three_records_per_type(self, tmp_path, capsys):
        path = tmp_path / "many.jsonl"
        path.write_text("".join(json.dumps({"type": "a", "n": n}) + "\n" for n in range(5)))
        assert main(["inspect", str(path)]) == 0
        err = capsys.readouterr().err
        assert "a: 5" in err
        assert [n for n in range(5) if f'"n": {n}}}' in err] == [0, 1, 2]

    def test_reads_json(self, tiny_collection, capsys):
        assert main(["inspect", str(tiny_collection / "synth_spec.json")]) == 0
        assert "videos_per_class" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["inspect", str(tmp_path / "missing.jsonl")]) == 1

    def test_integer_beyond_digit_limit_exits_one(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"n": ' + "9" * 5000 + "}")
        assert main(["inspect", str(path)]) == 1
        assert f"artifact file {path} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        (b'{"type": "a"}\n{"type": "\xff"}\n', ":2: not valid UTF-8"),
        (b'{"type": [1]}\n', ":1: record must be an object with a string 'type' field"),
        (b'{"type": {"a": 1}}\n', ":1: record must be an object with a string 'type' field"),
    ], ids=["non_utf8", "type_list", "type_object"])
    def test_unreadable_records_exit_one(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(content)
        assert main(["inspect", str(path)]) == 1
        assert f"{path}{message}" in capsys.readouterr().err


class TestUsage:
    def test_unknown_flag_exits_one(self, capsys):
        assert main(["run", "--nonsense"]) == 1
        assert "error" in capsys.readouterr().err

    def test_no_command_exits_one(self):
        assert main([]) == 1
