import hashlib
import json
import os
import re
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest

from dendrotensor import cli as cli_module
from dendrotensor import lurie as lurie_module
from dendrotensor import render as render_module
from dendrotensor import shuffle as shuffle_module
from dendrotensor.cli import main
from dendrotensor.render import json_escape, listing_json
from dendrotensor.shuffle import _shuffle_texts, _state_table
from dendrotensor.suites import SuiteConfig
from dendrotensor.treecore import parse_tree
from test_omegacat import binary_text

WORKED_INPUT = json.dumps(
    {
        "levels": [[1, 2, 3, 4], [1, 2, 3], [1]],
        "maps": [{"1": 1, "2": 1, "3": 3, "4": 3}, {"1": 1, "2": 1, "3": "*"}],
    }
)
WORKED_FOREST = "{ℓ2:1[ℓ1:1[ℓ0:1,ℓ0:2],ℓ1:2[]];ℓ1:3[ℓ0:3,ℓ0:4]}"


# -- omega ---------------------------------------------------------------------


def test_omega_worked_example_text(capsys):
    assert main(["omega", WORKED_INPUT]) == 0
    assert capsys.readouterr().out == WORKED_FOREST + "\n"


def test_omega_json_format(capsys):
    assert main(["omega", WORKED_INPUT, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["forest"] == WORKED_FOREST
    assert payload["components"] == 2
    assert payload["edges"] == 8


def test_omega_dot_format(capsys):
    assert main(["omega", WORKED_INPUT, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "ℓ1:2" in out


def test_omega_two_colors(capsys):
    assert main(["omega", '{"levels": [[1, 2]], "maps": []}']) == 0
    assert capsys.readouterr().out == "{ℓ0:1;ℓ0:2}\n"


def test_omega_empty(capsys):
    assert main(["omega", '{"levels": [[]], "maps": []}']) == 0
    assert capsys.readouterr().out == "{}\n"


@pytest.mark.parametrize(
    "text",
    [
        '{"levels": [["1"], ["1"]], "maps": [5]}',
        '{"levels": [["1"], ["1"]], "maps": {"1": "1"}}',
        '{"levels": "12", "maps": []}',
        '{"levels": [["1"], "1"], "maps": [{"1": "1"}]}',
    ],
)
def test_omega_rejects_bad_json_shape(capsys, text):
    assert main(["omega", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dendrotensor: error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "levels, maps",
    [
        ("[[null]]", "[]"),
        ("[[true, 1]]", "[]"),
        ("[[1.5]]", "[]"),
        ("[[[1]]]", "[]"),
        ('[[{"a": 1}]]', "[]"),
        ("[[1], [1]]", '[{"1": null}]'),
        ("[[1], [1]]", '[{"1": false}]'),
        ("[[1], [1]]", '[{"1": 1.0}]'),
        ("[[1], [1]]", '[{"1": [1]}]'),
        ("[[1], [1]]", '[{"1": {"a": 1}}]'),
    ],
)
def test_omega_refuses_level_scalars_that_are_no_names(capsys, levels, maps):
    # once read with str: null became the edge ℓ0:None and true ℓ0:True
    assert main(["omega", f'{{"levels": {levels}, "maps": {maps}}}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("dendrotensor: error: level elements") and err.count("\n") == 1


def test_omega_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(WORKED_INPUT))
    assert main(["omega", "-"]) == 0
    assert capsys.readouterr().out == WORKED_FOREST + "\n"


def test_omega_from_file(tmp_path, capsys):
    f = tmp_path / "chain.json"
    f.write_text(WORKED_INPUT, encoding="utf-8")
    assert main(["omega", str(f)]) == 0
    assert capsys.readouterr().out == WORKED_FOREST + "\n"


def test_omega_out_writes_file(tmp_path, capsys):
    dest = tmp_path / "result.txt"
    assert main(["omega", WORKED_INPUT, "--out", str(dest)]) == 0
    assert dest.read_text(encoding="utf-8") == WORKED_FOREST + "\n"
    assert capsys.readouterr().out == ""


# -- hom -----------------------------------------------------------------------


def test_hom_edge_probe_counts_edges(capsys):
    assert main(["hom", "e", "r[a[x],b[]]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4
    images = sorted(m["edge_map"]["e"] for m in payload["maps"])
    assert images == ["a", "b", "r", "x"]


def test_hom_text_format(capsys):
    assert main(["hom", "e", "r[a]", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "2" in out.splitlines()[0]


# sha256 of `hom bin2 bin5` (120 maps), as written when every cut of the
# target was listed; the arity-sliced cut listing must keep these bytes
def test_empty_text_listing_is_the_count_line(tmp_path, capsys):
    assert main(["hom", "a[b,c]", "x", "--format", "text"]) == 0
    assert capsys.readouterr().out == "count: 0\n"
    out = tmp_path / "h.txt"
    assert main(["hom", "a[b,c]", "x", "--format", "text", "--out", str(out)]) == 0
    assert out.read_bytes() == b"count: 0\n"


PINNED_HOM = {
    "json": "6f93a30dcdee40310446b01f2a071168522b27ec1ce21b0ed486a016f9af48e9",
    "text": "57782b08070faebdc1512452c8eb7c87401817f57f52ac82ca47c1dec1460b88",
}


@pytest.mark.parametrize("fmt", sorted(PINNED_HOM))
def test_hom_output_bytes_are_pinned(capsys, fmt):
    assert main(["hom", binary_text(2, "s"), binary_text(5, "t"), "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == PINNED_HOM[fmt]


def test_hom_over_max_results_exits_2_with_one_line(capsys):
    # `s[a,b]` into `r[x[p,q],y]` has 4 maps: r <- (x,y) and x <- (p,q), each
    # in two matchings
    argv = ["hom", "s[a,b]", "r[x[p,q],y]", "--format", "text"]
    assert main(argv + ["--max-results", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dendrotensor: error: map enumeration would produce 4 > cap 3\n"
    assert main(argv + ["--max-results", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "count: 4"
    assert main(argv + ["--max-results", "0"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


# -- shuffles ------------------------------------------------------------------


def test_shuffles_linear_count(capsys):
    assert main(["shuffles", "a0[a1[a2]]", "b0[b1]"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "count: 3"
    assert len(lines) == 4 and len(set(lines[1:])) == 3


def test_shuffles_json(capsys):
    assert main(["shuffles", "a0[a1]", "b0[b1]", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2 and len(payload["shuffles"]) == 2


def test_shuffles_dot_gallery(capsys):
    assert main(["shuffles", "a0[a1]", "b0[b1]", "--format", "dot"]) == 0
    assert "subgraph" in capsys.readouterr().out


def test_shuffles_rejects_shared_names(capsys):
    assert main(["shuffles", "r[a]", "r[b]"]) == 2
    assert "error" in capsys.readouterr().err


# sha256 of `shuffles PIN_A PIN_B` (14 trees, stumps in both factors); a
# change to the serialized trees or their order fails here
PIN_A, PIN_B = "a[b[c,d[]],e[f]]", "x[y[w,v],z[]]"
PINNED_SHUFFLES = {
    "json": "be3e7256ba9951109b434990d04fafa5856f37890fb5ebc5df95988f280e314e",
    "dot": "9f0ca0e8e9008e7be0b73052def033fd0290e310849ea8a5b7939de123a4d98c",
    "text": "39c880ec46ec5953964df0027d5207fb079afe3c76c994bb2c3b5f343db4b4e2",
}


@pytest.mark.parametrize("fmt", sorted(PINNED_SHUFFLES))
def test_shuffles_output_bytes_are_pinned(capsys, fmt):
    assert main(["shuffles", PIN_A, PIN_B, "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == PINNED_SHUFFLES[fmt]


# sha256 of `shuffles r[a1,a10[]] x[y,z[]]` (2 trees): children print in the
# sorted order of their tuple names, where `(a10|x)` comes before `(a1|x)`
# though `a1` comes before `a10`
SORTED_PAIR = ["r[a1,a10[]]", "x[y,z[]]"]
PINNED_SORTED_PAIR = {
    "json": "26e9da227d04861efcface40fd59b0d6a9bbcce5bbc5d44c6040df2198508c1c",
    "dot": "68a155afe39fb697c9651af8bc0e5055dc5996845d4cdb8e74ad5733163e6fda",
    "text": "94efcbc1bc6e55eb0f72a570cdede5ef15731aa4c8732a91b1146dc6e1984e2b",
}


@pytest.mark.parametrize("fmt", sorted(PINNED_SORTED_PAIR))
def test_shuffles_sorted_child_order_is_pinned(capsys, fmt):
    assert main(["shuffles", *SORTED_PAIR, "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == PINNED_SORTED_PAIR[fmt]


# `shuffles --format json` folds texts from escaped state names and writes
# them as head, join and tail; json.dumps over the raw texts is the oracle.
# `a"` sorts before `a#` but its escape `a\"` after it, so children must be
# ordered by raw names
ESCAPE_CASES = {
    "quote-and-backslash": ['r[a",a#]', 'x\\[y,z"[]]'],
    "controls": ["r[a\x01,b\x7f]", "x[y]"],
    "non-ascii": ["é[ℓ0:a,ℓ0:b[]]", "x[y,z]"],
    "lone-factor": ['r[a",a#[q\\]]'],
    "stumps": ['r[a"[],b]', "x[y[],z]"],
    "three-factors": ['r[a",a#]', "x[y]", "é[\x01]"],
}


# sha256 of `shuffles --format dot` on each escape case, as written when
# the gallery was drawn from shuffle trees; DOT escapes only `"` and `\`
PINNED_ESCAPE_DOT = {
    "controls": "e1e975a4b551b8356622ee8eaf15fd8218907dd5519326616b1b3204fc1446a0",
    "lone-factor": "d9c15a5ffc72287203cb9c9d057d16190173ed14f82d63e60bd350614b40a177",
    "non-ascii": "e3fc82289a76149ef76c6ae2ffd4aecf5518677833bbd317891726d78526f212",
    "quote-and-backslash": "42c59a03b9ee1b583e26da1e65a37929e942d87477e60d11c84e9fbb483fa265",
    "stumps": "b7a48d222d21d5d4dda2c9e44ee939763f0de66bbb14ae87b26b628d59822558",
    "three-factors": "62f2446f61f7e8fbc4b86efc829d351456f66683997ba11e921870bbdea3ff03",
}


@pytest.mark.parametrize("case", sorted(PINNED_ESCAPE_DOT))
def test_shuffles_dot_escapes_are_pinned(capsys, case):
    assert main(["shuffles", *ESCAPE_CASES[case], "--format", "dot"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == PINNED_ESCAPE_DOT[case]


def _json(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def _shuffles_oracle(factors: list[str]) -> str:
    table = _state_table([parse_tree(t) for t in factors])
    texts = _shuffle_texts(table)
    return _json({"count": len(texts), "shuffles": texts})


@pytest.mark.parametrize("case", sorted(ESCAPE_CASES))
def test_shuffles_json_matches_json_text(tmp_path, capsys, case):
    factors = ESCAPE_CASES[case]
    expected = _shuffles_oracle(factors)
    table = _state_table([parse_tree(t) for t in factors])
    assert "".join(listing_json("shuffles", _shuffle_texts(table, json_escape), '"')) == expected
    assert main(["shuffles", *factors, "--format", "json"]) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "s.json"
    assert main(["shuffles", *factors, "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("utf-8")


def test_shuffles_json_of_raw_texts_fails_the_oracle():
    # negative control: a quote in a state name must be escaped
    factors = ESCAPE_CASES["quote-and-backslash"]
    table = _state_table([parse_tree(t) for t in factors])
    assert "".join(listing_json("shuffles", _shuffle_texts(table), '"')) != _shuffles_oracle(factors)


def test_shuffles_json_empty_listing_matches_json_text():
    assert "".join(listing_json("shuffles", [], '"')) == _json({"count": 0, "shuffles": []})


def test_shuffles_listings_build_no_trees(monkeypatch, capsys):
    # every format is folded from the state table; no shuffle tree is built
    # or drawn
    def refuse(*args):
        raise RuntimeError("shuffle trees built")

    monkeypatch.setattr(shuffle_module, "shuffles", refuse)
    monkeypatch.setattr(shuffle_module, "_shuffle_trees", refuse)
    monkeypatch.setattr(render_module, "_emit_tree", refuse)
    for fmt in sorted(PINNED_SHUFFLES):
        assert main(["shuffles", PIN_A, PIN_B, "--format", fmt]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == PINNED_SHUFFLES[fmt]


@pytest.mark.parametrize(
    "argv, tables",
    [
        (["shuffles", PIN_A, PIN_B, "--format", "json"], 1),
        (["shuffles", PIN_A, PIN_B, "--format", "text"], 1),
        (["shuffles", PIN_A, PIN_B, "--format", "dot"], 1),
        (["shuffles", PIN_A], 1),
        # one table, counted, then folded into the tensor operad's cuts and
        # the witnesses
        (["tensor-hom", "e[f,g]", PIN_A, PIN_B], 1),
    ],
)
def test_state_table_built_once_per_listing(monkeypatch, capsys, argv, tables):
    built = []
    real = shuffle_module._state_table

    def counted(factors):
        built.append(tuple(factors))
        return real(factors)

    for module in (shuffle_module, cli_module, lurie_module):
        monkeypatch.setattr(module, "_state_table", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(built) == tables


@pytest.mark.parametrize("fmt", ["json", "text", "dot"])
def test_listing_shorter_than_the_count_is_refused(monkeypatch, capsys, fmt):
    if fmt == "dot":
        real_fold = render_module._shuffle_parts

        def short_fold(table, part):
            root, listing = real_fold(table, part)
            return root, listing[:-1]

        monkeypatch.setattr(render_module, "_shuffle_parts", short_fold)
    else:
        real = cli_module._shuffle_texts
        monkeypatch.setattr(cli_module, "_shuffle_texts", lambda table, piece: real(table, piece)[:-1])
    assert main(["shuffles", PIN_A, PIN_B, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dendrotensor: error:") and captured.err.count("\n") == 1


# two depth-3 binary trees: 20,173,952 shuffles
BIN3_A = "a[b[c[d,e],f[g,h]],i[j[k,l],m[n,o]]]"
BIN3_B = "p[q[r[s,t],u[v,w]],x[y[z,z1],z2[z3,z4]]]"


@pytest.mark.parametrize(
    "argv",
    [
        ["shuffles", BIN3_A, BIN3_B],
        ["tensor-hom", "e[f,g]", BIN3_A, BIN3_B],
        ["shuffles", "a0[a1[a2]]", "b0[b1]", "--max-results", "2"],
    ],
)
def test_oversized_shuffle_enumerations_are_refused(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("dendrotensor: error:") and err.count("\n") == 1
    assert "--max-results" in err


CHAIN200 = "c0" + "".join(f"[c{i}" for i in range(1, 200)) + "]" * 199


def test_tensor_hom_caps_its_maps(capsys, monkeypatch):
    # 200 shuffles, within the cap, but 60,300 maps: refused as hom refuses,
    # before any shuffle is built
    monkeypatch.setattr(shuffle_module, "shuffles", None)
    monkeypatch.setattr(shuffle_module, "_shuffle_trees", None)
    assert main(["tensor-hom", "f[g]", CHAIN200, "x[y]", "--max-results", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dendrotensor: error: map enumeration would produce 60300 > cap 1000\n"
    assert main(["hom", "f[g]", CHAIN200, "--max-results", "10"]) == 2
    assert capsys.readouterr().err == "dendrotensor: error: map enumeration would produce 20100 > cap 10\n"


def test_max_results_admits_exactly_the_count(capsys):
    assert main(["shuffles", "a0[a1[a2]]", "b0[b1]", "--max-results", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "count: 3"
    # one shuffle and two maps: the cap bounds both, so 2 is the least it admits
    assert main(["tensor-hom", "e[f,g]", "p[x,y]", "q", "--max-results", "2"]) == 0
    assert capsys.readouterr().out.startswith('{\n  "count": 2,')
    assert main(["tensor-hom", "e[f,g]", "p[x,y]", "q", "--max-results", "1"]) == 2
    assert capsys.readouterr().err == "dendrotensor: error: map enumeration would produce 2 > cap 1\n"


@pytest.mark.parametrize("cap", ["0", "-4"])
def test_max_results_must_be_positive(capsys, cap):
    assert main(["shuffles", "a0[a1]", "b0[b1]", "--max-results", cap]) == 2
    assert capsys.readouterr().err.count("\n") == 1


DEEP_CHAIN = "e0" + "".join(f"[e{i}" for i in range(1, 1501)) + "]" * 1500


def test_deep_shuffle_succeeds(capsys):
    # the shuffle walk keeps an explicit stack, so a 1500-deep factor is fine
    assert main(["shuffles", DEEP_CHAIN, "x"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "count: 1"
    assert len(out) == 2


@pytest.mark.parametrize("argv", [["hom", DEEP_CHAIN, "x"], ["tensor-hom", DEEP_CHAIN, "x", "y"]])
def test_deep_hom_succeeds(capsys, argv):
    # the map enumeration keeps an explicit stack, so a 1500-deep source is fine
    assert main(argv + ["--format", "text"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "count: 1"
    assert len(out) == 2


def test_deep_json_exits_2_with_one_line():
    # the JSON decoder recurses once per level of nesting; running past
    # Python's limit must end in exit 2, not a traceback
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys; from dendrotensor.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "omega", "-"]
    deep = "[" * 100_000 + "]" * 100_000
    done = subprocess.run(
        argv, input=deep, capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 2
    assert done.stderr.startswith("dendrotensor: error:")
    assert done.stderr.count("\n") == 1


def test_deep_single_factor_shuffle_succeeds(capsys):
    assert main(["shuffles", DEEP_CHAIN]) == 0
    assert capsys.readouterr().out == "count: 1\n" + DEEP_CHAIN + "\n"


@pytest.mark.parametrize("suite", ["shuffles", "segal"])
def test_deep_random_instances_succeed(capsys, suite):
    # without stumps a 20000-edge budget draws trees thousands of edges deep;
    # the generator keeps an explicit stack, so the suites see them
    argv = ["check", suite, "--max-edges", "20000", "--instances", "2", "--stump-probability", "0"]
    assert main(argv) == 0
    assert "input nested too deeply" not in capsys.readouterr().err


# -- tensor-hom ----------------------------------------------------------------


# sha256 of `tensor-hom e[f,g] PIN_A PIN_B` (190 maps); the witness of each
# map is the first shuffle that holds it, so this pins the shuffle order too
PINNED_TENSOR_HOM = {
    "json": "ef6a5c82dc7ad74c6ed76032f3c9ea0613e9b98a9ec3ae62b55c32715663e9ed",
    "text": "f5e8e84933c42ce8c89053ecc1552e6172ac2a0cf5a0f60a4295ec839a261fd3",
}


@pytest.mark.parametrize("fmt", sorted(PINNED_TENSOR_HOM))
def test_tensor_hom_output_bytes_are_pinned(capsys, fmt):
    assert main(["tensor-hom", "e[f,g]", PIN_A, PIN_B, "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == PINNED_TENSOR_HOM[fmt]


def test_tensor_hom_corolla_pair(capsys):
    assert main(["tensor-hom", "e[f,g]", "p[x,y]", "q"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    for entry in payload["maps"]:
        assert "witness_shuffle" in entry


# -- free-algebra ----------------------------------------------------------------


# sha256 of 12 terms over a forest with a stump (`b[]`), two generators of
# one colour (`g`, `h` on `a`) and a quote and non-ASCII text in an index and
# in elements; taken before the listing was written from escaped pieces
PIN_FREE_ALGEBRA_ARGV = [
    "free-algebra", "{r[a,b[],c[d,e]];x[y]}",
    "--generators", '{"g":"a","h":"a","k":"d","q\\"é":"e","m":"b"}',
    "--inputs", '{"g":["x1","ℓ\\"2"],"h":["y"],"k":["z","w"],"q\\"é":["é"],"m":["s"]}',
    "--output-color", "r",
]
PINNED_FREE_ALGEBRA = {
    "json": "22c2d5ce79e5266a5cac62cc54cbf2ac9b7a857e0aa2238adf07b2aae4aa30cb",
    "text": "0c6279475b251721cf4eb4bf86bfdf5a354e2fbe05dfb047ec81cf2113567438",
}


@pytest.mark.parametrize("fmt", sorted(PINNED_FREE_ALGEBRA))
def test_free_algebra_output_bytes_are_pinned(capsys, fmt):
    assert main(PIN_FREE_ALGEBRA_ARGV + ["--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == PINNED_FREE_ALGEBRA[fmt]


def test_free_algebra_terms(capsys):
    code = main(
        [
            "free-algebra",
            "{c[d,e]}",
            "--generators",
            '{"i": "d", "j": "e"}',
            "--inputs",
            '{"i": ["x"], "j": ["y"]}',
            "--output-color",
            "c",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["terms"]) == 1
    assert payload["terms"][0]["indices"] == ["i", "j"]


def test_free_algebra_text(capsys):
    code = main(
        [
            "free-algebra",
            "{c[d,e]}",
            "--generators",
            '{"i": "d", "j": "e"}',
            "--inputs",
            '{"i": ["x"], "j": ["y"]}',
            "--output-color",
            "c",
            "--format",
            "text",
        ]
    )
    assert code == 0
    assert "i" in capsys.readouterr().out


def test_free_algebra_rejects_unknown_output_color(capsys):
    argv = [
        "free-algebra",
        "{c[d,e]}",
        "--generators",
        '{"i":"d"}',
        "--inputs",
        '{"i":["x"]}',
        "--output-color",
        "z",
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dendrotensor: error: no edge 'z' in {c[d,e]}\n"


@pytest.mark.parametrize(
    "generators, inputs, error",
    [
        ('{"g":"z"}', '{"g":["i"]}', "generator 'g': no edge 'z' in {a}"),
        ('{"g":"a"}', '{"h":["a"]}', "--inputs entry 'h' names no generator"),
        ('{"g":"a","k":"a"}', '{"g":["i"]}', "generator 'k' has no --inputs entry"),
    ],
)
def test_free_algebra_rejects_inconsistent_generators(capsys, generators, inputs, error):
    argv = ["free-algebra", "a", "--generators", generators, "--inputs", inputs, "--output-color", "a"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dendrotensor: error: {error}\n"


def test_free_algebra_admits_a_generator_with_no_elements(capsys):
    argv = ["free-algebra", "a", "--generators", '{"g":"a"}', "--inputs", '{"g":[]}', "--output-color", "a"]
    assert main(argv + ["--format", "text"]) == 0
    assert capsys.readouterr().out == "count: 0\n"


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--generators", "[1,2]"),
        ("--generators", '{"i": 1}'),
        ("--inputs", '["x"]'),
        ("--inputs", '{"i": "x"}'),
        ("--inputs", '{"i": [1]}'),
    ],
)
def test_free_algebra_rejects_bad_json_shape(capsys, flag, value):
    args = {"--generators": '{"i": "d", "j": "e"}', "--inputs": '{"i": ["x"], "j": ["y"]}'}
    args[flag] = value
    argv = ["free-algebra", "{c[d,e]}", "--output-color", "c"]
    for k, v in args.items():
        argv += [k, v]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err


# -- check ------------------------------------------------------------------------


def test_check_single_suite_passes(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = main(
        [
            "check",
            "functoriality",
            "--seed",
            "5",
            "--instances",
            "5",
            "--out",
            str(dest),
        ]
    )
    assert code == 0
    report = json.loads(dest.read_text(encoding="utf-8"))
    assert report["failures"] == 0
    assert report["config"]["seed"] == 5
    assert [s["suite"] for s in report["suites"]] == ["functoriality"]
    err = capsys.readouterr().err
    assert "functoriality" in err and "total: 0 failures" in err


def test_check_records_a_functoriality_error_per_instance(monkeypatch, tmp_path, capsys):
    # an error in one instance fails its two records and names itself in
    # their witnesses; it neither ends the command nor skips an instance
    from dendrotensor import suites
    from dendrotensor.treecore import TreeError

    def broken(f, g):
        raise TreeError("no composite")

    monkeypatch.setattr(suites, "compose", broken)
    dest = tmp_path / "report.json"
    assert main(["check", "functoriality", "--seed", "5", "--instances", "3", "--out", str(dest)]) == 1
    records = json.loads(dest.read_text(encoding="utf-8"))["suites"][0]["records"]
    assert [(r["check"], r["instance"]) for r in records] == [
        (check, i) for i in range(3) for check in ("identity", "composition")
    ]
    assert all(r["status"] == "fail" and r["witness"]["error"] == "no composite" for r in records)
    assert "total: 6 failures" in capsys.readouterr().err


def test_check_report_is_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        dest = tmp_path / name
        assert (
            main(
                [
                    "check",
                    "shuffles",
                    "--seed",
                    "11",
                    "--instances",
                    "8",
                    "--out",
                    str(dest),
                ]
            )
            == 0
        )
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--instances", "0"),
        ("--instances", "-5"),
        ("--max-edges", "0"),
        ("--max-levels", "0"),
        ("--max-width", "-1"),
        ("--truncation", "-3"),
        ("--stump-probability", "7"),
        ("--stump-probability", "-0.1"),
    ],
)
def test_check_rejects_out_of_range_settings(capsys, flag, value):
    assert main(["check", "segal", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dendrotensor: error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, value", [("--max-edges", "2"), ("--stump-probability", "1")]
)
def test_check_gives_up_when_no_draw_can_succeed(flag, value):
    # no tree of at most 2 edges, nor one of all stumps, has an inner edge;
    # run in a subprocess so that an unbounded retry fails instead of hanging
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys; from dendrotensor.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "check", "segal", "--instances", "1", flag, value]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1
    assert "segal" in done.stderr and "draws" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["nerve", "--seed", "0", "--max-edges", "200", "--instances", "3"],
        ["fibrous", "--seed", "1", "--max-edges", "200", "--instances", "5"],
    ],
    ids=["nerve", "fibrous"],
)
def test_check_sizes_large_draws_by_cut_count(argv):
    # both once drew an operad with about 10**17 operations and ran out of
    # memory listing them; the child's address space is capped at 2 GiB so
    # that such a listing fails at once
    import resource

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys; from dendrotensor.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, "check", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap,
    )
    assert done.returncode == 0 or (done.returncode == 2 and done.stderr.count("\n") == 1), done.stderr


@pytest.mark.parametrize("suite", ["nerve", "fibrous"])
def test_cut_count_bound_rejects_draws(monkeypatch, suite):
    from dendrotensor import suites

    monkeypatch.setattr(suites, "MAX_CUTS", 0)
    with pytest.raises(ValueError, match=f"{suite}: no .* in {suites.MAX_DRAWS} draws"):
        suites.run_check(suite, SuiteConfig(instances=1))


def test_suite_config_validates_its_settings():
    for bad in (
        {"instances": 0},
        {"max_edges": 0},
        {"max_levels": -1},
        {"max_width": 0},
        {"truncation": -1},
        {"stump_probability": 1.5},
        {"stump_probability": float("nan")},
    ):
        with pytest.raises(ValueError):
            SuiteConfig(**bad)
    SuiteConfig(instances=1, truncation=0, stump_probability=1.0)


def test_check_exit_one_on_failures(monkeypatch, capsys):
    import dendrotensor.cli as cli_mod

    def fake_run_check(name, cfg):
        return {
            "command": f"check {name}",
            "config": {"seed": cfg.seed},
            "suites": [
                {
                    "suite": "functoriality",
                    "params": {},
                    "records": [
                        {
                            "check": "identity",
                            "instance": 0,
                            "status": "fail",
                            "witness": {},
                        }
                    ],
                    "failures": 1,
                }
            ],
            "failures": 1,
        }

    monkeypatch.setattr(cli_mod, "run_check", fake_run_check)
    assert main(["check", "functoriality"]) == 1
    assert "1 failures" in capsys.readouterr().err


# -- exit codes ---------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_no_arguments_is_usage_error():
    assert main([]) == 2


def test_malformed_tree_is_error(capsys):
    assert main(["hom", "e", "r[a"]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_json_is_error(capsys):
    assert main(["omega", '{"levels": [[1]]']) == 2
    assert "error" in capsys.readouterr().err


def test_bad_suite_name_is_usage_error():
    assert main(["check", "nonsense"]) == 2


# -- control characters in names -------------------------------------------------

# the control characters (category Cc) that are not whitespace, which the
# tree parser refuses already
CONTROL = [chr(c) for c in range(0x110000) if unicodedata.category(chr(c)) == "Cc" and not chr(c).isspace()]
FREE_ALGEBRA = ["free-algebra", "r[a]", "--generators", '{"1": "a"}', "--inputs", '{"1": ["g"]}', "--output-color", "r"]


def _with(argv: list[str], old: str, new: str) -> list[str]:
    return [new if arg == old else arg for arg in argv]


@pytest.mark.parametrize(
    "argv, what, name",
    [
        (["omega", '{"levels": [["a\\u0001"], [1]], "maps": [{"a\\u0001": 1}]}'], "edge name", "ℓ0:a\x01"),
        (["shuffles", "a\x01", "b"], "edge name", "a\x01"),
        (["shuffles", "a", "b[c\x9f]", "--format", "text"], "edge name", "c\x9f"),
        (_with(FREE_ALGEBRA, "r[a]", "r[a\x0e]") + ["--format", "text"], "edge name", "a\x0e"),
        (_with(FREE_ALGEBRA, "r", "r\x7f") + ["--format", "text"], "edge name", "r\x7f"),
        (_with(FREE_ALGEBRA, '{"1": "a"}', '{"\\u0002": "a"}') + ["--format", "text"], "generator index", "\x02"),
        (_with(FREE_ALGEBRA, '{"1": ["g"]}', '{"1": ["g\\u0000"]}') + ["--format", "text"], "input element", "g\x00"),
    ],
)
def test_text_listings_refuse_control_characters_with_one_line(capsys, argv, what, name):
    # a text listing prints names bare: `shuffles 'a\x01' b` printed a raw
    # \x01 and exited 0; now the command exits 2 before it writes anything
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dendrotensor: error: control character {name[-1]!r} in {what} {name!r}\n"


@pytest.mark.parametrize(
    "argv, escaped",
    [
        (["omega", '{"levels": [["a\\u0001"]], "maps": []}', "--format", "json"], "ℓ0:a\\u0001"),
        (["hom", "e", "r[a\x01]"], "a\\u0001"),
        (["hom", "e", "r[a\x01]", "--format", "text"], "a\\u0001"),
        (["shuffles", "a\x01", "b", "--format", "json"], "(a\\u0001|b)"),
        (["tensor-hom", "p", "a\x01", "b"], "(a\\u0001|b)"),
        (["tensor-hom", "p", "a\x01", "b", "--format", "text"], "(a\\u0001|b)"),
        (_with(FREE_ALGEBRA, '{"1": ["g"]}', '{"1": ["g\\u0000"]}'), "g\\u0000"),
    ],
)
def test_json_output_escapes_control_characters(capsys, argv, escaped):
    # JSON listings, and the JSON lines of `hom` and `tensor-hom` text
    # listings, escape control characters, so these commands still exit 0
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert escaped in out and not any(ch in out for ch in CONTROL)


def test_every_control_character_is_refused_and_nothing_else(capsys):
    for ch in CONTROL:
        assert main(["shuffles", f"a{ch}", "b"]) == 2
        assert capsys.readouterr().err.count("\n") == 1
    for ch in ("é", "\u200b", "\u00ad", "ℓ", "\U0001f333"):  # letters, format characters, a symbol
        assert main(["shuffles", f"a{ch}", "b"]) == 0
        assert capsys.readouterr().out == f"count: 1\n(a{ch}|b)\n"


# -- one parser per process ----------------------------------------------------------

# calls in one process whose parses differ: a cap that refuses, then the
# default cap, usage errors between good calls, `check` with its defaults
REUSE_SEQUENCE = [
    ["hom", binary_text(2, "s"), binary_text(5, "t"), "--max-results", "5"],
    ["hom", binary_text(2, "s"), binary_text(5, "t"), "--format", "text"],
    ["hom", "e"],
    ["shuffles", PIN_A, PIN_B, "--format", "dot"],
    ["check", "nonsense"],
    ["shuffles", "a0[a1[a2]]", "b0[b1]"],
    ["check", "shuffles"],
    ["omega", WORKED_INPUT, "--format", "dot"],
]


def _timeless(err: str) -> str:
    return re.sub(r"in \d+\.\d+s", "in <t>s", err)


def test_one_parser_serves_every_call(capsys):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys; from dendrotensor.cli import main; sys.exit(main(sys.argv[1:]))"
    cli_module._build_parser.cache_clear()
    codes = []
    for argv in REUSE_SEQUENCE:
        got = main(argv)
        codes.append(got)
        captured = capsys.readouterr()
        alone = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True, text=True, encoding="utf-8", env=env, timeout=120,
        )
        assert (got, captured.out, _timeless(captured.err)) == (
            alone.returncode, alone.stdout, _timeless(alone.stderr)
        ), argv
    assert codes == [2, 0, 2, 0, 2, 0, 0, 0]
    info = cli_module._build_parser.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
