import hashlib
import json
import math
import os
from pathlib import Path

import pytest

import cp1graft.cli as cli
from cp1graft.cli import (
    EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, RunConfig, Weight, atomic_write, dumps, main,
)
from cp1graft.grafting import is_two_pi_multiple
from cp1graft.surface import enumerate_words, fuchsian_from_fn


BASE_CONFIG = {
    "surface": {"genus": 2, "lengths": [2.0, 2.5, 1.7], "twists": [0.3, -0.8, 1.1]},
    "multicurve": [{"word": "a", "weight": "2*pi"}],
    "depth": 5,
    "seed": 0,
    "loops": 4,
    "margin": 0.05,
    "limit_depth": 4,
    "truncation_radius": 1.5,
}

TETRA = {
    "surface": {"genus": 2, "lengths": [2.0, 2.0, 2.0]},
    "multicurve": [],
    "seed": 0,
    "samples": 60,
    "domain": {
        "points": [[0, 0], [1, 0], "inf", [0.5, 0.8660254037844386]]
    },
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_weight_parsing():
    assert Weight.parse("2*pi").value == pytest.approx(2 * math.pi)
    assert Weight.parse("1/2*pi").value == pytest.approx(math.pi / 2)
    assert not Weight.parse("1/2*pi").is_two_pi_multiple
    assert Weight.parse(6.283185307179586).is_two_pi_multiple
    assert Weight.parse("0.75").value == 0.75


TWO_PI_BOUNDARY = [
    (0.0, True), (2 * math.pi, True), (4 * math.pi, True), (math.pi, False),
    (2 * math.pi * (1 + 4e-10), True), (2 * math.pi * (1 - 4e-10), True),
    (2 * math.pi * (1 + 2e-9), False), (2 * math.pi * (1 - 2e-9), False),
    ("2*pi", True), ("4*pi", True), ("1/2*pi", False), ("2.0000000001*pi", True),
]


@pytest.mark.parametrize("value,expected", TWO_PI_BOUNDARY)
def test_two_pi_rule_boundary(value, expected):
    # Every weight, numeric or a multiple of pi, is read by the one rule of
    # grafting: |w/2pi - k| < 1e-9.
    weight = Weight.parse(value)
    assert weight.is_two_pi_multiple is expected
    assert is_two_pi_multiple(weight.value) is expected


def test_dumps_17_digits():
    text = dumps({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text


def test_graft_writes_structure(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "out")
    assert main(["graft", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "grafted_structure.json").read_text())
    assert set(doc["base_holonomy"]) == {"a1", "b1", "a2", "b2"}
    assert max(doc["residuals"]["generator_deviation"]) < 1e-9
    assert doc["residuals"]["deformed_relation"] < 1e-8


def test_graft_deterministic(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["graft", "--config", cfg, "--out", out1]) == EXIT_OK
    assert main(["graft", "--config", cfg, "--out", out2]) == EXIT_OK
    a = (tmp_path / "a" / "grafted_structure.json").read_bytes()
    b = (tmp_path / "b" / "grafted_structure.json").read_bytes()
    assert a == b


def test_zero_weight_rejected(tmp_path):
    bad = dict(BASE_CONFIG, multicurve=[{"word": "a", "weight": "0"}])
    cfg = write_config(tmp_path, bad)
    assert main(["graft", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_bad_depth_rejected(tmp_path):
    bad = dict(BASE_CONFIG, depth=40)
    cfg = write_config(tmp_path, bad)
    assert main(["graft", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_verify_two_pi_passes(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "out")
    assert main(["verify", "two-pi", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "two-pi_report.json").read_text())
    assert doc["checks"][0]["passed"]
    assert not doc["violations"]


def test_verify_two_pi_rejects_fractional_weight(tmp_path):
    bad = dict(BASE_CONFIG, multicurve=[{"word": "a", "weight": "1/2*pi"}])
    cfg = write_config(tmp_path, bad)
    assert main(["verify", "two-pi", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_verify_two_pi_accepts_weight_within_the_rule(tmp_path):
    # 2.0000000001 pi is in 2 pi Z by the library's rule, as verify_covering
    # reads it, so the CLI runs the check instead of refusing the config.
    cfg = write_config(tmp_path, _weight("2.0000000001*pi"))
    assert main(["verify", "two-pi", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK


def test_verify_goldman(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "out")
    assert main(["verify", "goldman", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "goldman_report.json").read_text())
    assert doc["values"]["recovered"]["a"] == pytest.approx(2 * math.pi, abs=1e-6)


def test_verify_stratification(tmp_path):
    cfg = write_config(tmp_path, TETRA)
    out = str(tmp_path / "out")
    assert main(["verify", "stratification", "--config", cfg, "--out", out]) == EXIT_OK


def test_verify_dome_measure(tmp_path):
    cfg = write_config(tmp_path, TETRA)
    out = str(tmp_path / "out")
    assert main(["verify", "dome-measure", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "dome-measure_report.json").read_text())
    assert len(doc["values"]["edges"]) == 6


def test_verify_covering(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "out")
    assert main(["verify", "covering", "--config", cfg, "--out", out]) == EXIT_OK


def test_export_limitset_schema(tmp_path):
    cfg = write_config(tmp_path, dict(BASE_CONFIG, limit_depth=3))
    out = str(tmp_path / "out")
    assert main(["export", "limitset", "--config", cfg, "--out", out]) == EXIT_OK
    lines = (tmp_path / "out" / "limitset.csv").read_text().splitlines()
    assert lines[0] == "re,im"
    for row in lines[1:]:
        re_part, im_part = row.split(",")
        if re_part == "inf":
            continue
        assert abs(float(im_part)) < 1e-8 * max(1.0, abs(float(re_part)))


def test_export_holonomy_schema(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "out")
    assert main(["export", "holonomy", "--config", cfg, "--out", out]) == EXIT_OK
    lines = (tmp_path / "out" / "holonomy.csv").read_text().splitlines()
    assert lines[0].startswith("word,a_re,a_im")
    assert len(lines) == 1 + 8 + 8 * 7  # words of length <= 2


@pytest.mark.parametrize("multicurve", [[], [{"word": "a", "weight": "1/2*pi"}]],
                         ids=["fuchsian", "bent"])
def test_export_holonomy_matches_per_word_build(tmp_path, multicurve):
    """The CSV is byte for byte the one built word by word, each matrix by
    its own ``rep.rho(word)``."""
    doc = dict(BASE_CONFIG, multicurve=multicurve, export_word_length=4)
    cfg = write_config(tmp_path, doc)
    assert main(["export", "holonomy", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    config = RunConfig.load(cfg)
    rep = config.structure().rho_prime if multicurve else fuchsian_from_fn(config.fn)
    want = ["word,a_re,a_im,b_re,b_im,c_re,c_im,d_re,d_im,tr_re,tr_im"]
    for word in enumerate_words(4):
        m = rep.rho(word)
        entries = [m.a, m.b, m.c, m.d, m.a + m.d]
        want.append(f"{word}," + ",".join(f"{v.real:.17g},{v.imag:.17g}" for v in entries))
    lines = (tmp_path / "holonomy.csv").read_text().split("\n")
    assert lines.pop() == ""  # one newline after the last row
    differ = [k for k, (got, row) in enumerate(zip(lines, want)) if got != row]
    assert len(lines) == len(want) and not differ, differ[:5]


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_export_holonomy_streams_the_joined_bytes(tmp_path, monkeypatch, length):
    """The CSV is written a chunk of rows at a time, as the rows are
    formatted, and its bytes are those of all rows joined at once."""
    seen = []

    def spy(path, text, chunks=()):
        def counted():
            for chunk in chunks:
                seen.append(chunk)
                yield chunk
        return atomic_write(path, text, counted())

    monkeypatch.setattr(cli, "atomic_write", spy)
    cfg = write_config(tmp_path, dict(BASE_CONFIG, export_word_length=length))
    assert main(["export", "holonomy", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    config = RunConfig.load(cfg)
    rep = config.structure().rho_prime if config.multicurve_words else fuchsian_from_fn(config.fn)
    rows = ["word,a_re,a_im,b_re,b_im,c_re,c_im,d_re,d_im,tr_re,tr_im"]
    for word in enumerate_words(length):
        m = rep.rho(word)
        entries = [m.a, m.b, m.c, m.d, m.a + m.d]
        rows.append(f"{word}," + ",".join(f"{v.real:.17g},{v.imag:.17g}" for v in entries))
    assert (tmp_path / "holonomy.csv").read_bytes() == ("\n".join(rows) + "\n").encode()
    assert len(seen) == length and sum(c.count("\n") for c in seen) == len(rows) - 1


def test_atomic_write_leaves_nothing_when_a_chunk_fails(tmp_path):
    def chunks():
        yield "first row\n"
        raise RuntimeError("formatting failed")

    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        atomic_write(str(target), "header\n", chunks())
    assert list(tmp_path.iterdir()) == []
    atomic_write(str(target), "header\n", iter(["a\n", "b\n"]))
    assert target.read_text() == "header\na\nb\n"


def test_export_dome_and_pleat(tmp_path):
    cfg = write_config(tmp_path, TETRA)
    out = str(tmp_path / "out")
    assert main(["export", "dome", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "dome.json").read_text())
    assert len(doc["faces"]) == 4
    assert len(doc["edges"]) == 6
    obj = (tmp_path / "out" / "dome.obj").read_text()
    assert sum(1 for line in obj.splitlines() if line.startswith("v ")) == 4
    assert sum(1 for line in obj.splitlines() if line.startswith("f ")) == 4

    cfg2 = write_config(tmp_path, dict(BASE_CONFIG, multicurve=[{"word": "a", "weight": "1/2*pi"}]), "c2.json")
    assert main(["export", "pleat", "--config", cfg2, "--out", out]) == EXIT_OK
    pleat = json.loads((tmp_path / "out" / "pleat.json").read_text())
    assert pleat["faces"]
    assert all(e["weight"] == pytest.approx(math.pi / 2) for e in pleat["edges"])


def test_export_pleat_zero_weight_coplanar(tmp_path):
    # Weight 0 is allowed for pleat export (graft rejects it): the mesh is
    # flat, so every OBJ vertex sits in the plane over the real axis.
    cfg = write_config(
        tmp_path, dict(BASE_CONFIG, multicurve=[{"word": "a", "weight": 0}])
    )
    out = str(tmp_path / "out")
    assert main(["export", "pleat", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "pleat.json").read_text())
    for x, y, t in doc["vertices"]:
        assert abs(y) < 1e-9


def test_tol_override(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "out")
    # An absurdly tight override forces a violation report (exit 1).
    code = main([
        "verify", "two-pi", "--config", cfg, "--out", out,
        "--tol-override", "two_pi=1e-30",
    ])
    assert code == 1


def test_covering_unsatisfiable_margin(tmp_path):
    # Loops cannot be placed when the margin exhausts the sphere: guard, not
    # a covering violation.
    bad = dict(BASE_CONFIG, margin=1.9, loops=2)
    cfg = write_config(tmp_path, bad)
    assert main(["verify", "covering", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_missing_config(tmp_path):
    assert main(["graft", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_CONFIG



def _surface(**changes):
    return dict(BASE_CONFIG, surface=dict(BASE_CONFIG["surface"], **changes))


def _weight(weight):
    return dict(BASE_CONFIG, multicurve=[{"word": "a", "weight": weight}])


def _domain(points):
    return dict(TETRA, domain={"points": points})


# (id, config, command, extra flags, exit code, stderr prefix)
CLI_ERROR_CASES = [
    ("limit-depth-0-limitset", dict(BASE_CONFIG, limit_depth=0),
     ("export", "limitset"), (), EXIT_CONFIG, "error:"),
    ("limit-depth-0-covering", dict(BASE_CONFIG, limit_depth=0),
     ("verify", "covering"), (), EXIT_CONFIG, "error:"),
    ("word-length-0", dict(BASE_CONFIG, export_word_length=0),
     ("export", "holonomy"), (), EXIT_CONFIG, "error:"),
    # Word levels past the bounds would take gigabytes, so each oversized
    # value is given to a command that does not read it: the config is
    # refused before any command runs.
    ("limit-depth-8", dict(BASE_CONFIG, limit_depth=8),
     ("export", "holonomy"), (), EXIT_CONFIG, "error: limit_depth must be in [1, 7]"),
    ("word-length-7", dict(BASE_CONFIG, export_word_length=7),
     ("export", "limitset"), (), EXIT_CONFIG, "error: export_word_length must be in [1, 6]"),
    ("one-twist", _surface(twists=[0.1]), ("graft",), (), EXIT_CONFIG, "error:"),
    ("depth-text", dict(BASE_CONFIG, depth="x"), ("graft",), (), EXIT_CONFIG, "error:"),
    ("seed-text", dict(BASE_CONFIG, seed="x"), ("graft",), (), EXIT_CONFIG, "error:"),
    ("samples-text", dict(TETRA, samples="x"),
     ("verify", "stratification"), (), EXIT_CONFIG, "error:"),
    ("length-text", _surface(lengths=["a", 2.5, 1.7]), ("graft",), (), EXIT_CONFIG, "error:"),
    ("short-point", _domain([[0, 0], [1], "inf"]), ("export", "dome"), (), EXIT_CONFIG, "error:"),
    ("top-level-list", [BASE_CONFIG], ("graft",), (), EXIT_CONFIG, "error:"),
    ("truncation-0", dict(BASE_CONFIG, truncation_radius=0),
     ("export", "pleat"), (), EXIT_CONFIG, "error:"),
    ("truncation-inf", dict(BASE_CONFIG, truncation_radius=math.inf),
     ("export", "pleat"), (), EXIT_CONFIG, "error:"),
    ("unknown-tol-flag", BASE_CONFIG, ("verify", "two-pi"),
     ("--tol-override", "two-pi=5"), EXIT_CONFIG, "error:"),
    ("unknown-tol-config", dict(BASE_CONFIG, tolerances={"two-pi": 1e-30}),
     ("verify", "two-pi"), (), EXIT_CONFIG, "error:"),
    ("tol-flag-no-value", BASE_CONFIG, ("verify", "two-pi"),
     ("--tol-override", "two_pi"), EXIT_CONFIG, "error:"),
    ("tol-flag-bad-value", BASE_CONFIG, ("verify", "two-pi"),
     ("--tol-override", "two_pi=abc"), EXIT_CONFIG, "error:"),
    ("weight-pi", _weight("pi"), ("verify", "covering"), (), EXIT_CONFIG, "error:"),
    ("weight-minus-pi", _weight("-pi"), ("graft",), (), EXIT_CONFIG, "error:"),
    ("weight-bad-pi-multiple", _weight("x*pi"), ("graft",), (), EXIT_CONFIG, "error:"),
    ("weight-bad-number", _weight("abc"), ("graft",), (), EXIT_CONFIG, "error:"),
    ("weight-bad-type", _weight([1]), ("graft",), (), EXIT_CONFIG, "error:"),
    ("weight-negative", _weight(-1.0), ("graft",), (), EXIT_CONFIG, "error:"),
    ("genus-3", _surface(genus=3), ("graft",), (), EXIT_CONFIG, "error:"),
    ("two-lengths", _surface(lengths=[2.0, 2.5]), ("graft",), (), EXIT_CONFIG, "error:"),
    ("weight-pi-graft", _weight("pi"), ("graft",), (), EXIT_OK, ""),
    ("coincident-dome-points", _domain([[0, 0], [1e-9, 0], [1, 0]]),
     ("export", "dome"), (), EXIT_NUMERIC, "numeric failure: dome needs at least 3 distinct"),
    ("weight-nan", _weight(math.nan), ("graft",), (), EXIT_CONFIG, "error:"),
    ("weight-inf", _weight("inf"), ("graft",), (), EXIT_CONFIG, "error:"),
    ("weight-overflowing-pi-multiple", _weight("1e400*pi"), ("graft",), (), EXIT_CONFIG, "error:"),
    ("loops-negative", dict(BASE_CONFIG, loops=-3),
     ("verify", "covering"), (), EXIT_CONFIG, "error:"),
    ("margin-negative", dict(BASE_CONFIG, margin=-1),
     ("verify", "covering"), (), EXIT_CONFIG, "error:"),
    ("samples-0", dict(TETRA, samples=0),
     ("verify", "stratification"), (), EXIT_CONFIG, "error:"),
    ("weight-true", _weight(True), ("graft",), (), EXIT_CONFIG, "error: cannot parse weight True"),
    ("depth-true", dict(BASE_CONFIG, depth=True), ("graft",), (), EXIT_CONFIG, "error:"),
    ("samples-true", dict(TETRA, samples=True),
     ("verify", "stratification"), (), EXIT_CONFIG, "error:"),
    ("loops-true", dict(BASE_CONFIG, loops=True),
     ("verify", "covering"), (), EXIT_CONFIG, "error:"),
    ("length-true", _surface(lengths=[True, 2.5, 1.7]), ("graft",), (), EXIT_CONFIG,
     "error: surface.lengths must be float, got True"),
    # A NaN twist would be read as no twist, and an infinite one or a NaN
    # point would fail as a numeric error.
    ("twist-nan", _surface(twists=[math.nan, -0.8, 1.1]), ("graft",), (), EXIT_CONFIG,
     "error: surface.twists must be finite"),
    ("twist-inf", _surface(twists=[0.3, math.inf, 1.1]), ("graft",), (), EXIT_CONFIG,
     "error: surface.twists must be finite"),
    ("domain-point-nan", _domain([[0, 0], [math.nan, 1], "inf"]), ("export", "dome"), (),
     EXIT_CONFIG, "error: domain point must be finite"),
    # A NaN tolerance passes every check, and a zero or NaN measure tolerance
    # refines every path to the last level, so each is given to a command
    # that does not read it: the config is refused before any command runs.
    ("tolerance-nan", dict(BASE_CONFIG, tolerances={"two_pi": math.nan}), ("graft",), (),
     EXIT_CONFIG, "error: tolerance two_pi must be positive and finite"),
    ("tolerance-zero", dict(BASE_CONFIG, tolerances={"measure": 0}), ("graft",), (),
     EXIT_CONFIG, "error: tolerance measure must be positive and finite"),
    ("tolerance-negative", BASE_CONFIG, ("graft",), ("--tol-override", "goldman=-1e-6"),
     EXIT_CONFIG, "error: tolerance goldman must be positive and finite"),
    # An infinite length would fail as a numeric error, and an infinite
    # margin would try every loop placement in vain; a finite length the
    # construction cannot handle stays a numeric failure.
    ("length-inf", _surface(lengths=[math.inf, 2.5, 1.7]), ("graft",), (), EXIT_CONFIG,
     "error: surface.lengths must be three positive finite numbers"),
    ("margin-inf", dict(BASE_CONFIG, margin=math.inf), ("verify", "covering"), (), EXIT_CONFIG,
     "error: margin must be positive and finite"),
    ("length-1e300", _surface(lengths=[1e300, 2.5, 1.7]), ("graft",), (), EXIT_NUMERIC,
     "numeric failure:"),
    ("crossing-multicurve",
     dict(BASE_CONFIG, depth=4, multicurve=[{"word": "a", "weight": "2*pi"},
                                            {"word": "b", "weight": 1.0}]),
     ("graft",), (), EXIT_CONFIG,
     "error: leaf lifts intersect: BcDC*curve0 crosses BcDC*curve1"),
]


@pytest.mark.parametrize(
    "config, command, flags, code, message",
    [pytest.param(*case[1:], id=case[0]) for case in CLI_ERROR_CASES],
)
def test_cli_error_paths(tmp_path, capsys, config, command, flags, code, message):
    cfg = write_config(tmp_path, config)
    out = str(tmp_path / "out")
    assert main([*command, "--config", cfg, "--out", out, *flags]) == code
    err = capsys.readouterr().err
    if message:
        assert err.startswith(message), err
    else:
        assert err == ""


def test_depth_and_seed_flags_match_config(tmp_path):
    flagged = write_config(tmp_path, BASE_CONFIG, "flagged.json")
    inline = write_config(tmp_path, dict(BASE_CONFIG, depth=4, seed=3), "inline.json")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["graft", "--config", flagged, "--out", str(a), "--depth", "4", "--seed", "3"]) == EXIT_OK
    assert main(["graft", "--config", inline, "--out", str(b)]) == EXIT_OK
    text = (a / "grafted_structure.json").read_bytes()
    assert text == (b / "grafted_structure.json").read_bytes()
    doc = json.loads(text)
    assert (doc["depth"], doc["seed"]) == (4, 3)


def test_dome_measure_independent_of_seed(tmp_path):
    # Maximal disks are unique, so the measure reads no seed; the
    # stratification samples still come from it.
    config = str(CONFIG_DIR / "sixpoint_domain.json")
    outputs = {}
    for check, report in (("dome-measure", "dome-measure_report.json"),
                          ("stratification", "stratification_report.json")):
        for seed in ("0", "5"):
            out = tmp_path / f"{check}-{seed}"
            main(["verify", check, "--config", config, "--out", str(out), "--seed", seed])
            outputs[check, seed] = (out / report).read_bytes()
    assert outputs["dome-measure", "0"] == outputs["dome-measure", "5"]
    assert outputs["stratification", "0"] != outputs["stratification", "5"]


# Every subcommand on every file in configs/: exit code and sha256 of each
# output file.  Recorded from a checkout whose outputs were already checked
# byte for byte against earlier ones; a change that moves any output byte
# fails here.
CLI_COMMANDS = (
    ("graft",),
    ("verify", "two-pi"),
    ("verify", "goldman"),
    ("verify", "stratification"),
    ("verify", "covering"),
    ("verify", "dome-measure"),
    ("export", "pleat"),
    ("export", "dome"),
    ("export", "limitset"),
    ("export", "holonomy"),
)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CLI_GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def cli_digests(out_root) -> dict:
    """Run every subcommand on every config; key "<config> <command>"."""
    digests = {}
    for config in sorted(CONFIG_DIR.glob("*.json")):
        for command in CLI_COMMANDS:
            key = f"{config.name} {' '.join(command)}"
            out = Path(out_root) / key.replace(" ", "_")
            code = main([*command, "--config", str(config), "--out", str(out)])
            files = {}
            if out.exists():
                for f in sorted(out.iterdir()):
                    files[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
            digests[key] = {"exit": code, "files": files}
    return digests


def test_cli_outputs_match_golden(tmp_path):
    golden = json.loads(CLI_GOLDEN_PATH.read_text())
    got = cli_digests(tmp_path)
    assert set(got) == set(golden)
    for key in golden:
        assert got[key] == golden[key], key
