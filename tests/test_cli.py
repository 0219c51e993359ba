import json
import multiprocessing
import shutil
import sys
import time
import tracemalloc

import pytest

import tubeloc.cli as cli
from tubeloc.cli import main
from tubeloc.formats import hash_collection_inputs, load_collection

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


class TestSynthCommand:
    def test_writes_expected_files(self, tiny_collection):
        names = {p.name for p in tiny_collection.iterdir()}
        assert "manifest.jsonl" in names
        assert "planted.jsonl" in names
        assert "synth_spec.json" in names
        assert any(name.endswith(".frames.jsonl") for name in names)

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path), "--object-scale", "2.0"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ('{"videos_per_class": 2.5}', "videos_per_class must be an integer"),
        ('{"frame_width": "320"}', "frame_width must be a number"),
        ('{"object_scale": NaN}', "object_scale must be finite"),
    ])
    def test_mistyped_spec_file_exits_one(self, tmp_path, capsys, text, message):
        spec_path = tmp_path / "s.json"
        spec_path.write_text(text)
        code = main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec_path)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("digits,message", [
        (400, "object_scale must be finite"),
        # past the integer digit limit of Pythons that have one
        (5000, "not valid JSON" if hasattr(sys, "get_int_max_str_digits")
         else "object_scale must be finite"),
    ])
    def test_integer_too_large_for_a_float_exits_one(self, tmp_path, capsys, digits, message):
        spec_path = tmp_path / "s.json"
        spec_path.write_text('{"object_scale": 1' + "0" * digits + "}")
        code = main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec_path)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--seed=-1"], "seed must be >= 0"),
        (["--frame-width", "1e308"], AREA_MESSAGE),
        (["--frame-width", "1e-200", "--frame-height", "1e-200"], AREA_MESSAGE),
    ], ids=["negative_seed", "area_overflow", "area_underflow"])
    def test_invalid_spec_value_exits_one(self, tmp_path, capsys, argv, message):
        code = main(TINY_SYNTH + ["--out", str(tmp_path / "o")] + argv)
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
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

    def test_single_iteration_single_snapshot(self, tiny_collection, tmp_path):
        out = tmp_path / "one"
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--snapshots", "--iterations", "1",
                     "--k", "2", "--threads", "1"])
        assert code == 0
        assert [p.name for p in sorted((out / "snapshots").iterdir())] == ["iter_001"]

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

    @pytest.mark.parametrize("flag,value", [("--theta", "nan"), ("--lambda", "inf")])
    def test_non_finite_flag_exits_one(self, tiny_collection, tmp_path, capsys, flag, value):
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), flag, value])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
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

    @pytest.mark.parametrize("change", ["edit", "delete"])
    def test_input_hash_is_of_the_loaded_bytes(self, tiny_collection, tmp_path, monkeypatch,
                                               change):
        # a sidecar that changes during the run does not change the recorded hash
        target = tmp_path / "collection"
        shutil.copytree(tiny_collection, target)
        manifest = target / "manifest.jsonl"
        loaded_hash = hash_collection_inputs(manifest)
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
            assert hash_collection_inputs(manifest) != loaded_hash

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

    def test_threads_without_fork_exits_one(self, tiny_collection, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        code = main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), "--threads", "2"])
        assert code == 1
        assert "threads must be 1 on a platform without fork" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(tmp_path / "o"), "--iterations", "1", "--threads", "1"]) == 0

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
                    "regions": [[0, video.frames[0].proposals[0].id, [0, 0, 1, 1]]]}
                   for vid, video in sorted(collection.videos.items())]
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

    def test_per_iteration_requires_snapshots(self, tiny_collection, tmp_path, capsys):
        out = tmp_path / "nosnap"
        assert main(["run", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--out", str(out), "--iterations", "1", "--k", "2",
                     "--threads", "1"]) == 0
        code = main(["eval", "--collection", str(tiny_collection / "manifest.jsonl"),
                     "--results", str(out), "--per-iteration"])
        assert code == 1
        assert "--snapshots" in capsys.readouterr().err

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
