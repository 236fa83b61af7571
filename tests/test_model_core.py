from __future__ import annotations

import itertools
import pathlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmkit.canon import canonicalize, load_model
from fmkit.diagnostics import SourceSpan
from fmkit.exprs import Lit
from fmkit.model import (
    INTRA_EDGES,
    AttrSpec,
    BehaviorDecl,
    Endpoint,
    FlowArc,
    Machine,
    Model,
    ModelError,
    Ref,
    ResolutionError,
    Sphere,
    Stage,
    ThingKind,
    TriggerArc,
    UnknownLabelError,
    expand_label,
    resolve_endpoint,
    shortest_chain,
    subdiagram,
)
from fmkit.parser import parse
from fmkit.printer import model_signature, print_model

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

ALL_STAGES = list(Stage)


def test_resolve_cash_receive(tvm):
    ep = resolve_endpoint(tvm, "tvm/cash.receive")
    assert ep.path == ("tvm", "cash")
    assert ep.stage is Stage.RECEIVE


def test_resolve_bad_stage_name(tvm):
    with pytest.raises(ResolutionError) as exc:
        resolve_endpoint(tvm, "tvm/cash.banana")
    assert exc.value.code == "stage-not-declared"
    assert exc.value.segment == "banana"


def test_resolve_implicit_transfer_on_tank(plant):
    # tankA only declares process; canonicalization inserted its transfer.
    ep = resolve_endpoint(plant, "plant/tankA.transfer")
    assert ep.path == ("plant", "tankA")
    assert ep.stage is Stage.TRANSFER


def test_resolve_unknown_sphere(tvm):
    with pytest.raises(ResolutionError) as exc:
        resolve_endpoint(tvm, "kiosk/cash.receive")
    assert exc.value.code == "unknown-sphere"
    assert exc.value.segment == "kiosk"


def test_resolve_unknown_machine(tvm):
    with pytest.raises(ResolutionError) as exc:
        resolve_endpoint(tvm, "tvm/coin_hopper.receive")
    assert exc.value.code == "unknown-machine"
    assert exc.value.segment == "coin_hopper"


@pytest.mark.parametrize(
    "text,code,segment",
    [
        ("tvm", "stage-not-declared", "tvm"),
        (".create", "stage-not-declared", ".create"),
        ("tvm.create", "unknown-machine", "tvm"),
        ("tvm/.create", "unknown-machine", ""),
        ("tvm//cash.create", "unknown-sphere", ""),
        ("tvm/card_net.receive", "unknown-machine", "card_net"),
        ("tvm/card_net/nope.receive", "unknown-machine", "nope"),
        ("tvm/vault/pay_req.receive", "unknown-sphere", "vault"),
        ("tvm/card_net/pay_req.create", "stage-not-declared", "create"),
    ],
)
def test_resolve_names_the_first_failing_segment(tvm, text, code, segment):
    with pytest.raises(ResolutionError) as exc:
        resolve_endpoint(tvm, text)
    assert (exc.value.code, exc.value.segment, str(exc.value)) == (code, segment, f"{code}: '{segment}' in '{text}'")


def test_subdiagram_cash_in_region(tvm):
    # The single authored cash arc expands to three canonical steps.
    region = subdiagram(tvm, ["23"])
    assert region.flow_labels == {"23", "23.1", "23.2"}
    arcs = [tvm.flow(label) for label in sorted(region.flow_labels)]
    steps = [(a.src.stage, a.dst.stage) for a in arcs]
    assert steps == [
        (Stage.RELEASE, Stage.TRANSFER),
        (Stage.TRANSFER, Stage.TRANSFER),
        (Stage.TRANSFER, Stage.RECEIVE),
    ]


def test_subdiagram_empty(tvm):
    region = subdiagram(tvm, [])
    assert region.is_empty
    assert not region.stages


def test_subdiagram_unknown_label(tvm):
    with pytest.raises(UnknownLabelError) as exc:
        subdiagram(tvm, ["nonexistent"])
    assert exc.value.missing == ("nonexistent",)


def test_subdiagram_keeps_a_triggers_endpoints(tvm):
    region = subdiagram(tvm, ["27"])
    assert {str(ep) for ep in region.stages} == {"tvm/cash.process", "tvm/ticket.create"}
    assert not region.flow_labels


def test_subdiagram_requires_a_canonical_model():
    with pytest.raises(ModelError) as exc:
        subdiagram(Model({}, [], [], [], [], []), [])
    assert str(exc.value) == "subdiagram requires a canonical model"


def test_event_of_an_unknown_name_is_none(tvm):
    assert tvm.event("cash_in") is not None
    assert tvm.event("no_such_event") is None


def test_event_region_lets_other_errors_through(monkeypatch):
    # Only an unknown label is a diagnostic; any other error is a bug.
    def broken(model, labels):
        raise RuntimeError("broken subdiagram")

    monkeypatch.setattr("fmkit.canon.subdiagram", broken)
    with pytest.raises(RuntimeError, match="broken subdiagram"):
        load_model((CORPUS / "tvm.fm").read_text(encoding="utf-8"), "tvm.fm")


def test_corpus_flows_all_legal(tvm, plant, turbine):
    for model in (tvm, plant, turbine):
        for arc in model.flows:
            pair = (arc.src.stage, arc.dst.stage)
            if arc.src.path == arc.dst.path:
                assert pair in INTRA_EDGES, arc.label
            else:
                assert pair == (Stage.TRANSFER, Stage.TRANSFER), arc.label


def test_corpus_flows_preserve_kind(tvm, plant, turbine):
    for model in (tvm, plant, turbine):
        for arc in model.flows:
            src_kind = model.find_machine(arc.src.path).kind
            dst_kind = model.find_machine(arc.dst.path).kind
            assert src_kind == dst_kind, arc.label


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subdiagram_union_property(data):
    model, _ = load_model((CORPUS / "tvm.fm").read_text(encoding="utf-8"), "tvm.fm")
    families = sorted({a.family for a in model.flows} | {t.label for t in model.triggers})
    picked = data.draw(st.sets(st.sampled_from(families), max_size=8))
    half = data.draw(st.integers(0, len(picked)))
    ordered = sorted(picked)
    left, right = ordered[:half], ordered[half:]
    union = subdiagram(model, ordered)
    parts = subdiagram(model, left).arc_labels | subdiagram(model, right).arc_labels
    assert union.arc_labels == parts


def _all_shortest(src: Stage, dst: Stage, same: bool) -> list[tuple]:
    """Independent exhaustive path enumeration over the legality edges."""
    nodes = [(0, s) for s in ALL_STAGES] + ([] if same else [(1, s) for s in ALL_STAGES])

    def successors(node):
        side, stage = node
        out = [(side, b) for (a, b) in INTRA_EDGES if a is stage]
        if not same and side == 0 and stage is Stage.TRANSFER:
            out.append((1, Stage.TRANSFER))
        return out

    goal = (0 if same else 1, dst)
    results = []
    frontier = [[(0, src)]]
    while frontier and not results:
        nxt = []
        for path in frontier:
            for succ in successors(path[-1]):
                if succ == goal:
                    results.append(tuple(path + [succ]))
                elif succ not in path and len(path) < len(nodes):
                    nxt.append(path + [succ])
        frontier = nxt
    return results


def test_shortest_chain_unique_for_every_stage_pair():
    # Expansion must never face a tie, or canonicalization would be ambiguous.
    # shortest_chain does not check for ties: this test is the proof that it
    # returns the one shortest chain, node for node.
    for src, dst, same in itertools.product(ALL_STAGES, ALL_STAGES, (True, False)):
        expected = _all_shortest(src, dst, same)
        got = shortest_chain(src, dst, same)
        assert len(expected) <= 1
        if expected:
            assert got == expected[0]
        else:
            assert got is None


def test_shortest_chain_known_lengths():
    five = shortest_chain(Stage.PROCESS, Stage.PROCESS, same_machine=False)
    assert five is not None and len(five) - 1 == 5
    direct = shortest_chain(Stage.RELEASE, Stage.TRANSFER, same_machine=True)
    assert direct is not None and len(direct) - 1 == 1
    assert shortest_chain(Stage.PROCESS, Stage.CREATE, same_machine=True) is None
    assert shortest_chain(Stage.TRANSFER, Stage.CREATE, same_machine=False) is None


def test_endpoint_cached_text_and_hash_keep_value_semantics():
    ep = Endpoint(("tvm", "cash"), Stage.RECEIVE)
    twin = Endpoint(("tvm", "cash"), Stage.RECEIVE)
    assert str(ep) == "tvm/cash.receive"
    assert hash(ep) == hash(twin) == hash((("tvm", "cash"), Stage.RECEIVE))
    assert ep == twin and repr(ep) == repr(twin)
    assert ep != Endpoint(("tvm", "cash"), Stage.PROCESS)
    # A string's hash differs between processes, so a pickle carries no
    # cache: an endpoint is a tuple, with no instance dict to hold one.
    clone = pickle.loads(pickle.dumps(ep))
    assert clone == ep and not hasattr(clone, "__dict__")


def expand_label_by_scan(model, label):
    """expand_label as it was before the family table: the label itself if
    some arc has it, then every flow label starting with label + '.'."""
    out = []
    if label in model._flows_by_label or label in model._triggers_by_label:
        out.append(label)
    prefix = label + "."
    for known in model._flows_by_label:
        if known.startswith(prefix):
            out.append(known)
    return out


arc_labels = st.text(alphabet="ab.@1", max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(arc_labels, max_size=12), st.lists(arc_labels, max_size=4), st.lists(arc_labels, max_size=8))
def test_expand_label_matches_the_prefix_scan(flow_labels, trigger_labels, queries):
    """Hand-built arcs, their family left at "", with any labels: dots
    anywhere, repeated, empty."""
    ep = Endpoint(("s", "m"), Stage.PROCESS)
    model = Model(
        kinds={},
        roots=[],
        flows=[FlowArc(ep, ep, label) for label in flow_labels],
        triggers=[TriggerArc(ep, ep, label) for label in trigger_labels],
        events=[],
        behaviors=[],
    )
    model.reindex()
    for label in queries + flow_labels + trigger_labels + [""]:
        assert expand_label(model, label) == expand_label_by_scan(model, label)


@pytest.mark.parametrize("name", ["tvm", "plant", "turbine"])
def test_expand_label_matches_the_prefix_scan_on_corpus(name, request):
    model = request.getfixturevalue(name)
    for label in list(model._flows_by_label) + list(model._triggers_by_label) + ["", "nope"]:
        assert expand_label(model, label) == expand_label_by_scan(model, label)


def test_a_model_is_indexed_when_built():
    """A hand-built model answers its lookups with no call to reindex()."""
    machine = Machine("m", "w", (Stage.PROCESS,))
    ep = Endpoint(("s", "m"), Stage.PROCESS)
    head = FlowArc(ep, ep, "a", family="a", chain_len=2)
    step = FlowArc(ep, ep, "a.1", family="a", index=1, chain_len=2)
    trig = TriggerArc(ep, ep, "t")
    model = Model({}, [Sphere("s", machines=[machine])], [head, step], [trig], [], [])
    assert model.find_machine(("s", "m")) is machine
    assert model.flow("a.1") is step
    assert model.trigger("t") is trig
    assert expand_label(model, "a") == ["a", "a.1"]


# The parser builds kind and behavior records with the span of their source;
# equality, hashing and repr ignore it, so a record reads the same wherever
# it was declared.

SPAN_A = SourceSpan("a.fm", 1, 1, 1, 5)
SPAN_B = SourceSpan("b.fm", 7, 3, 7, 9)
SPANNED_RECORDS = [
    (AttrSpec("n", "int", 1, SPAN_A), AttrSpec("n", "int", 1, SPAN_B), AttrSpec("n", "int", 2, SPAN_A),
     "AttrSpec(name='n', type='int', default=1)"),
    (ThingKind("t", (AttrSpec("n", "int"),), SPAN_A), ThingKind("t", (AttrSpec("n", "int", None, SPAN_B),)),
     ThingKind("u", (AttrSpec("n", "int"),), SPAN_A),
     "ThingKind(name='t', attrs=(AttrSpec(name='n', type='int', default=None),))"),
    (BehaviorDecl("b", Ref("e"), SPAN_A), BehaviorDecl("b", Ref("e")), BehaviorDecl("b", Ref("f"), SPAN_A),
     "BehaviorDecl(name='b', program=Ref(event='e'))"),
]


@pytest.mark.parametrize("one,same,other,text", SPANNED_RECORDS, ids=["attr", "kind", "behavior"])
def test_records_ignore_their_span(one, same, other, text):
    assert one == same and hash(one) == hash(same)
    assert one != other
    assert repr(one) == repr(same) == text
    with pytest.raises(AttributeError):
        one.span = SPAN_B


def test_parser_gives_kinds_attributes_and_behaviors_their_spans():
    source = (
        "thing w\n"
        "thing t { a: int, b: bool }\n"
        "sphere s { machine m: t { create transfer assign { a = 1 } } flow s/m.create -> s/m.transfer #x }\n"
        "event e { region { #x } }\n"
        "  behavior go { e }\n"
    )
    model, diags = load_model(source, "m.fm")
    assert diags == []

    def where(span):
        return (span.file, span.start_line, span.start_col, span.end_col)

    assert where(model.kinds["w"].span) == ("m.fm", 1, 7, 7)
    assert where(model.kinds["t"].span) == ("m.fm", 2, 7, 7)
    assert [where(a.span) for a in model.kinds["t"].attrs] == [("m.fm", 2, 11, 11), ("m.fm", 2, 19, 19)]
    assert where(model.behavior("go").span) == ("m.fm", 5, 3, 10)
    # Spheres and machines are the parser's records too: the 'sphere' and
    # 'machine' tokens, the kind name and each assigned attribute's name.
    sphere, machine = model.roots[0], model.find_machine(("s", "m"))
    assert where(sphere.span) == ("m.fm", 3, 1, 6)
    assert where(machine.span) == ("m.fm", 3, 12, 18)
    assert where(machine.kind_span) == ("m.fm", 3, 23, 23)
    assert [where(span) for span in machine.assign_spans] == [("m.fm", 3, 52, 52)]
    bare = Machine("m", "t", (Stage.CREATE, Stage.TRANSFER), (Stage.RELEASE,), (("a", Lit(1)),))
    assert machine == bare and repr(machine) == repr(bare)
    bare_sphere = Sphere("s", machines=[bare])
    assert sphere == bare_sphere and repr(sphere) == repr(bare_sphere)


def test_auto_labels_follow_binding_order():
    # A sphere's own arcs come first, even when written after a child
    # sphere, then each child's in turn.
    source = (
        "thing w\nsphere a {\n"
        "  sphere b { machine n: w { create process } flow a/b/n.create -> a/b/n.process }\n"
        "  sphere c { machine k: w { create process } flow a/c/k.create -> a/c/k.process }\n"
        "  machine m: w { create process }\n"
        "  flow a/m.create -> a/m.process\n}\n"
    )
    tree, diags = parse(source)
    assert diags == []
    assert [arc.src.path for arc in tree.arcs] == [("a", "m"), ("a", "b", "n"), ("a", "c", "k")]
    model = canonicalize(tree)
    assert [(arc.label, arc.src.path) for arc in model.flows] == [
        ("@0001", ("a", "m")), ("@0002", ("a", "b", "n")), ("@0003", ("a", "c", "k"))
    ]


def test_chain_stages_go_to_their_own_sides_machine():
    # process -> process across machines passes release and transfer on the
    # source, then transfer and receive on the target; a stage a machine
    # declares (a's transfer) is not added to it.
    model, diags = load_model(
        "thing w\nsphere s {\n  machine a: w { create process transfer }\n  machine b: w { process }\n"
        "  flow s/a.process -> s/b.process #x\n}\n"
    )
    assert diags == []
    a, b = model.find_machine(("s", "a")), model.find_machine(("s", "b"))
    assert a.implicit == (Stage.RELEASE,)
    assert b.implicit == (Stage.TRANSFER, Stage.RECEIVE)
    assert [str(arc.dst) for arc in model.flows] == [
        "s/a.release", "s/a.transfer", "s/b.transfer", "s/b.receive", "s/b.process"
    ]


@pytest.mark.parametrize("name", ["tvm", "plant", "turbine"])
def test_canonicalize_takes_over_the_parsers_machines(name):
    tree, diags = parse((CORPUS / f"{name}.fm").read_text(), f"{name}.fm")
    assert not any(d.is_error for d in diags)
    first = canonicalize(tree)
    printed, signature = print_model(first), model_signature(first)
    second = canonicalize(tree)
    # A second run on the same tree adds no implicit stage and builds an equal model.
    assert print_model(first) == print_model(second) == printed
    assert model_signature(first) == model_signature(second) == signature

    def parsed(spheres):
        for sphere in spheres:
            yield from sphere.machines
            yield from parsed(sphere.children)

    own = list(parsed(tree.spheres))
    for model in (first, second):
        machines = [m for _, m in model.machines()]
        assert len(machines) == len(own) and all(m is p for m, p in zip(machines, own))
