"""Record semantics, class by class: what equality compares (and what it
leaves out: source spans), whether a record hashes, whether its fields can
be assigned, its repr, its constructor's keyword names and defaults, and
its pickle and copy round trips.

Tuple-backed records (``NamedTuple``) equal the plain tuple of their
fields; every other record is equal only to a record of its own class, so
``Seq(a, b) != Choice(a, b)`` and ``Attr("x") != Lit("x")``."""
from __future__ import annotations

import copy
import pickle

import pytest

from fmkit.ast import ArcDecl, EventDecl, Injection, ModelAst, Scenario
from fmkit.behavior import BehaviorAutomaton, Occurrence, Verdict, Violation, _Fragment
from fmkit.diagnostics import Diagnostic, Severity, SourceSpan
from fmkit.exprs import Attr, Binary, Lit, Unary
from fmkit.model import (
    AttrSpec,
    BehaviorDecl,
    Choice,
    Endpoint,
    EventDef,
    FlowArc,
    Interrupt,
    Machine,
    Model,
    Par,
    Ref,
    Region,
    Repeat,
    Seq,
    Sphere,
    Stage,
    ThingKind,
    TriggerArc,
)
from fmkit.simulate import SimConfig, SimError, Thing

SPAN_A = SourceSpan("a.fm", 1, 1, 1, 5)
SPAN_B = SourceSpan("b.fm", 7, 3, 7, 9)
EP = Endpoint(("s", "m"), Stage.PROCESS)
EP2 = Endpoint(("s", "m"), Stage.RELEASE)
X = Attr("x")
REGION = Region(frozenset({"a"}), frozenset({EP}), frozenset({"a"}))
MACHINE = Machine("m", "w", (Stage.PROCESS,))
A, B = Ref("a"), Ref("b")


def automaton(final: int = 1) -> BehaviorAutomaton:
    return BehaviorAutomaton(2, 0, {(0, "a"): 1}, frozenset({final}), frozenset())


def model(label: str = "a") -> Model:
    return Model({"w": ThingKind("w")}, [Sphere("s", machines=[MACHINE])], [FlowArc(EP, EP2, label)], [], [], [])


# name: (record, an equal record built with keyword arguments (and, for a
# record with spans, other spans), a record that differs in one compared
# field, the repr)
RECORDS = {
    "SourceSpan": (
        SourceSpan("a.fm", 1, 2, 3, 4),
        SourceSpan(file="a.fm", start_line=1, start_col=2, end_line=3, end_col=4),
        SourceSpan("a.fm", 1, 2, 3, 5),
        "SourceSpan(file='a.fm', start_line=1, start_col=2, end_line=3, end_col=4)",
    ),
    "Diagnostic": (
        Diagnostic(Severity.ERROR, "E", "m", SPAN_A),
        Diagnostic(severity=Severity.ERROR, code="E", message="m", span=SPAN_A),
        Diagnostic(Severity.ERROR, "E", "m", SPAN_B),
        "Diagnostic(severity=<Severity.ERROR: 'error'>, code='E', message='m', "
        "span=SourceSpan(file='a.fm', start_line=1, start_col=1, end_line=1, end_col=5))",
    ),
    "Lit": (Lit(1), Lit(value=1), Lit(2), "Lit(value=1)"),
    "Attr": (X, Attr(name="x"), Attr("y"), "Attr(name='x')"),
    "Unary": (Unary("-", X), Unary(op="-", operand=X), Unary("not", X), "Unary(op='-', operand=Attr(name='x'))"),
    "Binary": (
        Binary("+", X, Lit(1)),
        Binary(op="+", left=X, right=Lit(1)),
        Binary("-", X, Lit(1)),
        "Binary(op='+', left=Attr(name='x'), right=Lit(value=1))",
    ),
    "AttrSpec": (
        AttrSpec("n", "int", 1, SPAN_A),
        AttrSpec(name="n", type="int", default=1, span=SPAN_B),
        AttrSpec("n", "int"),
        "AttrSpec(name='n', type='int', default=1)",
    ),
    "ThingKind": (
        ThingKind("t", (AttrSpec("n", "int"),), SPAN_A),
        ThingKind(name="t", attrs=(AttrSpec("n", "int", None, SPAN_B),)),
        ThingKind("t"),
        "ThingKind(name='t', attrs=(AttrSpec(name='n', type='int', default=None),))",
    ),
    "Endpoint": (
        EP,
        Endpoint(path=("s", "m"), stage=Stage.PROCESS),
        EP2,
        "Endpoint(path=('s', 'm'), stage=<Stage.PROCESS: 'process'>)",
    ),
    "Machine": (
        Machine("m", "w", (Stage.CREATE,), (Stage.PROCESS,), (("n", X),), SPAN_A, SPAN_A, (SPAN_A,), (Stage.CREATE,)),
        Machine(name="m", kind="w", declared=(Stage.CREATE,), implicit=(Stage.PROCESS,), assigns=(("n", X),),
                span=SPAN_B),
        Machine("m", "w", (Stage.CREATE,)),
        "Machine(name='m', kind='w', declared=(<Stage.CREATE: 'create'>,), "
        "implicit=(<Stage.PROCESS: 'process'>,), assigns=(('n', Attr(name='x')),))",
    ),
    "Sphere": (
        Sphere("s", [], [MACHINE], SPAN_A),
        Sphere(name="s", machines=[MACHINE], span=SPAN_B),
        Sphere("s"),
        "Sphere(name='s', children=[], machines=[Machine(name='m', kind='w', "
        "declared=(<Stage.PROCESS: 'process'>,), implicit=(), assigns=())])",
    ),
    "FlowArc": (
        FlowArc(EP, EP2, "a.1", None, "a", 1, 2, EP2),
        FlowArc(src=EP, dst=EP2, label="a.1", guard=None, family="a", index=1, chain_len=2, authored_dst=EP2),
        FlowArc(EP, EP2, "a.1", None, "a", 1, 3, EP2),
        "FlowArc(src=Endpoint(path=('s', 'm'), stage=<Stage.PROCESS: 'process'>), "
        "dst=Endpoint(path=('s', 'm'), stage=<Stage.RELEASE: 'release'>), label='a.1', guard=None, "
        "family='a', index=1, chain_len=2, authored_dst=Endpoint(path=('s', 'm'), "
        "stage=<Stage.RELEASE: 'release'>))",
    ),
    "TriggerArc": (
        TriggerArc(EP, EP2, "t", X, (("n", X),), True),
        TriggerArc(src=EP, dst=EP2, label="t", guard=X, spawn_attrs=(("n", X),), consuming=True),
        TriggerArc(EP, EP2, "t", X, (("n", X),)),
        "TriggerArc(src=Endpoint(path=('s', 'm'), stage=<Stage.PROCESS: 'process'>), "
        "dst=Endpoint(path=('s', 'm'), stage=<Stage.RELEASE: 'release'>), label='t', "
        "guard=Attr(name='x'), spawn_attrs=(('n', Attr(name='x')),), consuming=True)",
    ),
    "Region": (
        REGION,
        Region(arc_labels=frozenset({"a"}), stages=frozenset({EP}), flow_labels=frozenset({"a"})),
        Region(frozenset({"a"}), frozenset({EP}), frozenset()),
        "Region(arc_labels=frozenset({'a'}), stages=frozenset({Endpoint(path=('s', 'm'), "
        "stage=<Stage.PROCESS: 'process'>)}), flow_labels=frozenset({'a'}))",
    ),
    "EventDef": (
        EventDef("e", REGION),
        EventDef(name="e", region=REGION),
        EventDef("f", REGION),
        "EventDef(name='e', region=" + "Region(arc_labels=frozenset({'a'}), stages=frozenset({Endpoint("
        "path=('s', 'm'), stage=<Stage.PROCESS: 'process'>)}), flow_labels=frozenset({'a'})))",
    ),
    "Ref": (A, Ref(event="a"), B, "Ref(event='a')"),
    "Seq": (Seq((A, B)), Seq(children=(A, B)), Seq((B, A)), "Seq(children=(Ref(event='a'), Ref(event='b')))"),
    "Choice": (
        Choice((A, B)), Choice(children=(A, B)), Choice((A,)), "Choice(children=(Ref(event='a'), Ref(event='b')))",
    ),
    "Par": (Par((A, B)), Par(children=(A, B)), Par((B,)), "Par(children=(Ref(event='a'), Ref(event='b')))"),
    "Repeat": (
        Repeat(A, True), Repeat(child=A, possible=True), Repeat(A), "Repeat(child=Ref(event='a'), possible=True)",
    ),
    "Interrupt": (
        Interrupt(A, B, A),
        Interrupt(watcher=A, handler=B, body=A),
        Interrupt(A, B, B),
        "Interrupt(watcher=Ref(event='a'), handler=Ref(event='b'), body=Ref(event='a'))",
    ),
    "BehaviorDecl": (
        BehaviorDecl("b", A, SPAN_A),
        BehaviorDecl(name="b", program=A),
        BehaviorDecl("b", B, SPAN_A),
        "BehaviorDecl(name='b', program=Ref(event='a'))",
    ),
    "Model": (
        model(),
        Model(kinds={"w": ThingKind("w")}, roots=[Sphere("s", machines=[MACHINE])], flows=[FlowArc(EP, EP2, "a")],
              triggers=[], events=[], behaviors=[], canonical=False),
        model("b"),
        "Model(kinds={'w': ThingKind(name='w', attrs=())}, roots=[Sphere(name='s', children=[], machines=["
        "Machine(name='m', kind='w', declared=(<Stage.PROCESS: 'process'>,), implicit=(), assigns=())])], "
        "flows=[FlowArc(src=Endpoint(path=('s', 'm'), stage=<Stage.PROCESS: 'process'>), dst=Endpoint("
        "path=('s', 'm'), stage=<Stage.RELEASE: 'release'>), label='a', guard=None, family='', index=0, "
        "chain_len=1, authored_dst=None)], triggers=[], events=[], behaviors=[], canonical=False)",
    ),
    "ArcDecl": (
        ArcDecl(True, EP, EP2, None, (), False, "a", SPAN_A, SPAN_A, SPAN_A),
        ArcDecl(is_flow=True, src=EP, dst=EP2, guard=None, spawn_attrs=(), consuming=False, label="a",
                span=SPAN_A, src_span=SPAN_A, dst_span=SPAN_A),
        ArcDecl(True, EP, EP2, None, (), False, "a", SPAN_A, SPAN_A, SPAN_B),
        "ArcDecl(is_flow=True, src=Endpoint(path=('s', 'm'), stage=<Stage.PROCESS: 'process'>), "
        "dst=Endpoint(path=('s', 'm'), stage=<Stage.RELEASE: 'release'>), guard=None, spawn_attrs=(), "
        "consuming=False, label='a', span=SourceSpan(file='a.fm', start_line=1, start_col=1, end_line=1, "
        "end_col=5), src_span=SourceSpan(file='a.fm', start_line=1, start_col=1, end_line=1, end_col=5), "
        "dst_span=SourceSpan(file='a.fm', start_line=1, start_col=1, end_line=1, end_col=5))",
    ),
    "EventDecl": (
        EventDecl("e", ("a",), SPAN_A),
        EventDecl(name="e", labels=("a",), span=SPAN_A),
        EventDecl("e", ("a",), SPAN_B),
        "EventDecl(name='e', labels=('a',), span=SourceSpan(file='a.fm', start_line=1, start_col=1, "
        "end_line=1, end_col=5))",
    ),
    "ModelAst": (
        ModelAst("m.fm", [ThingKind("w")]),
        ModelAst(file="m.fm", kinds=[ThingKind("w")], spheres=[], arcs=[], events=[], behaviors=[]),
        ModelAst("m.fm"),
        "ModelAst(file='m.fm', kinds=[ThingKind(name='w', attrs=())], spheres=[], arcs=[], events=[], "
        "behaviors=[])",
    ),
    "Injection": (
        Injection(3, "w", EP, (("n", 1),), SPAN_A),
        Injection(tick=3, kind="w", target=EP, attrs=(("n", 1),), span=SPAN_B),
        Injection(4, "w", EP, (("n", 1),), SPAN_A),
        "Injection(tick=3, kind='w', target=Endpoint(path=('s', 'm'), stage=<Stage.PROCESS: 'process'>), "
        "attrs=(('n', 1),))",
    ),
    "Scenario": (
        Scenario((Injection(3, "w", EP, ()),)),
        Scenario(injections=(Injection(3, "w", EP, ()),)),
        Scenario(),
        "Scenario(injections=(Injection(tick=3, kind='w', target=Endpoint(path=('s', 'm'), "
        "stage=<Stage.PROCESS: 'process'>), attrs=()),))",
    ),
    "Occurrence": (
        Occurrence("e", 1, 2, 3),
        Occurrence(event="e", start=1, end=2, thing=3),
        Occurrence("e", 1, 2, 4),
        "Occurrence(event='e', start=1, end=2, thing=3)",
    ),
    "_Fragment": (
        _Fragment(0, frozenset({1})),
        _Fragment(start=0, finals=frozenset({1})),
        _Fragment(0, frozenset({0})),
        "_Fragment(start=0, finals=frozenset({1}))",
    ),
    "BehaviorAutomaton": (
        automaton(),
        BehaviorAutomaton(n_states=2, start=0, transitions={(0, "a"): 1}, accepting=frozenset({1}),
                          watcher_edges=frozenset()),
        automaton(0),
        "BehaviorAutomaton(n_states=2, start=0, transitions={(0, 'a'): 1}, accepting=frozenset({1}), "
        "watcher_edges=frozenset())",
    ),
    "Violation": (
        Violation(5, ("a",), "b"),
        Violation(tick=5, expected=("a",), observed="b"),
        Violation(5, (), "b"),
        "Violation(tick=5, expected=('a',), observed='b')",
    ),
    "Verdict": (
        Verdict(True, None, (), False),
        Verdict(conforms=True, first_violation=None, occurrences=(), completed=False),
        Verdict(True, None, (), True),
        "Verdict(conforms=True, first_violation=None, occurrences=(), completed=False)",
    ),
    "SimConfig": (
        SimConfig(5, 2),
        SimConfig(max_ticks=5, stage_dwell=2, gate=None),
        SimConfig(5),
        "SimConfig(max_ticks=5, stage_dwell=2, gate=None)",
    ),
    "Thing": (
        Thing(1, "w", {"n": 1}, 0, "s/m.process"),
        Thing(id=1, kind="w", attrs={"n": 1}, arrival_tick=0, site="s/m.process", next=None),
        Thing(2, "w", {"n": 1}, 0, "s/m.process"),
        "Thing(id=1, kind='w', attrs={'n': 1}, arrival_tick=0, site='s/m.process', next=None)",
    ),
}

# Values that change while a record lives: these hash as nothing.
MUTABLE = {"Machine", "Sphere", "FlowArc", "TriggerArc", "Model", "ModelAst", "SimConfig", "Thing"}
# The NamedTuple records.
TUPLES = {
    "SourceSpan", "Diagnostic", "Endpoint", "Region", "EventDef", "ArcDecl", "EventDecl", "Scenario",
    "Occurrence", "Violation", "Verdict", "_Fragment",
}
# Records whose equality checks the class, paired with a same-valued record
# of a sibling class.
SIBLINGS = [
    (Seq((A, B)), Choice((A, B))),
    (Choice((A, B)), Par((A, B))),
    (Par((A, B)), Seq((A, B))),
    (Attr("x"), Lit("x")),
    (Ref("a"), Attr("a")),
    (Unary("-", X), Binary("-", X, X)),
    (Repeat(A), Ref("a")),
]
# Records that are not tuples, with the tuple of their compared fields.
AS_TUPLES = [
    (Lit(1), (1,)),
    (X, ("x",)),
    (Unary("-", X), ("-", X)),
    (Binary("+", X, X), ("+", X, X)),
    (A, ("a",)),
    (Seq((A, B)), ((A, B),)),
    (Repeat(A), (A, False)),
    (Interrupt(A, B, A), (A, B, A)),
    (AttrSpec("n", "int"), ("n", "int", None)),
    (ThingKind("t"), ("t", ())),
    (BehaviorDecl("b", A), ("b", A)),
    (Injection(3, "w", EP, ()), (3, "w", EP, ())),
    (Machine("m", "w", ()), ("m", "w", (), (), ())),
    (Sphere("s"), ("s", [], [])),
    (SimConfig(), (1000, 1, None)),
]
# Records holding source spans that equality, hashing and repr leave out.
SPANNED = {"AttrSpec", "ThingKind", "Machine", "Sphere", "BehaviorDecl", "Injection"}


def test_all_thirty_five_records_are_pinned():
    assert len(RECORDS) == 35


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_repr(name):
    one, twin, other, text = RECORDS[name]
    assert one == twin and not one != twin
    assert one != other and not one == other
    assert repr(one) == text
    if name in SPANNED:
        assert repr(twin) == text


@pytest.mark.parametrize("name", RECORDS)
def test_hash_follows_mutability(name):
    one, twin, _, _ = RECORDS[name]
    if name in MUTABLE or name == "BehaviorAutomaton":  # an automaton holds a dict
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(twin)
        assert len({one, twin}) == 1


@pytest.mark.parametrize("name", sorted(set(RECORDS) - MUTABLE))
def test_immutable_records_refuse_assignment(name):
    one = RECORDS[name][0]
    field = repr(one).split("(", 1)[1].split("=", 1)[0]  # the first field
    with pytest.raises(AttributeError):
        setattr(one, field, 0)
    assert one == RECORDS[name][1]


def test_mutable_records_take_assignment():
    machine = Machine("m", "w", (Stage.CREATE,))
    machine.implicit += (Stage.PROCESS,)
    assert machine.stages() == (Stage.CREATE, Stage.PROCESS)
    config = SimConfig()
    config.max_ticks = 7
    assert config == SimConfig(7)


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_copy_round_trips(name):
    one = RECORDS[name][0]
    for clone in (pickle.loads(pickle.dumps(one)), copy.copy(one), copy.deepcopy(one)):
        assert type(clone) is type(one)
        assert clone == one and repr(clone) == repr(one)
        if name in SPANNED:
            assert clone.span == one.span


def test_tuple_records_equal_the_tuple_of_their_fields():
    for name in TUPLES:
        one = RECORDS[name][0]
        assert one == tuple(one) and hash(one) == hash(tuple(one))


def test_other_records_never_equal_a_tuple():
    for one, fields in AS_TUPLES:
        assert one != fields and fields != one and not one == fields


@pytest.mark.parametrize("one,sibling", SIBLINGS, ids=lambda r: type(r).__name__)
def test_equality_checks_the_class(one, sibling):
    assert one != sibling and sibling != one
    assert not one == sibling


def test_span_stays_out_of_equality():
    for name in SPANNED:
        one, twin, _, _ = RECORDS[name]
        assert one == twin and one.span != twin.span


def test_lit_equality_is_by_type_and_value_and_repr_keeps_the_type():
    assert Lit(1) != Lit(1.0) and Lit(1) != Lit(True) and Lit(1.0) != Lit(True)
    assert len({Lit(1), Lit(1.0), Lit(True)}) == 3
    assert Lit(1) == Lit(1) and hash(Lit(2.5)) == hash(Lit(2.5))
    # So machines whose assigns print differently (`1`, `1.0`) differ too.
    machines = [Machine("m", "w", (Stage.PROCESS,), assigns=(("x", Lit(v)),)) for v in (1, 1.0)]
    assert machines[0] != machines[1]
    assert [repr(Lit(v)) for v in (1, 1.0, True)] == ["Lit(value=1)", "Lit(value=1.0)", "Lit(value=True)"]


def test_constructor_defaults():
    machine = Machine("m", "w", (Stage.CREATE,))
    assert (machine.implicit, machine.assigns, machine.span, machine.kind_span) == ((), (), None, None)
    assert (machine.assign_spans, machine.repeats) == ((), ())
    first, second = Sphere("a"), Sphere("b")
    assert first.children == first.machines == [] and first.span is None
    assert first.children is not second.children and first.machines is not second.machines
    arc = FlowArc(EP, EP2, "a")
    assert (arc.guard, arc.family, arc.index, arc.chain_len, arc.authored_dst) == (None, "", 0, 1, None)
    assert not arc.is_implicit and arc.is_chain_head
    trig = TriggerArc(EP, EP2, "t")
    assert (trig.guard, trig.spawn_attrs, trig.consuming) == (None, (), False)
    assert Region(frozenset(), frozenset(), frozenset()).is_empty
    assert (Repeat(A).possible, AttrSpec("n", "int").default, ThingKind("t").attrs) == (False, None, ())
    assert Model({}, [], [], [], [], []).canonical is False
    tree = ModelAst("m.fm")
    assert (tree.kinds, tree.spheres, tree.arcs, tree.events, tree.behaviors) == ([], [], [], [], [])
    assert tree.kinds is not ModelAst("m.fm").kinds
    assert Injection(1, "w", EP, ()).span is None and Scenario().injections == ()
    config = SimConfig()
    assert (config.max_ticks, config.stage_dwell, config.gate) == (1000, 1, None)
    assert Thing(1, "w", {}, 0, None).next is None


def test_a_region_needs_its_flow_labels():
    # A region without them would read as holding no flow, to the
    # occurrence scanner and to the printer alike.
    with pytest.raises(TypeError):
        Region(frozenset({"a"}), frozenset({EP}))


def test_source_span_start_must_not_follow_its_end():
    for args in [(2, 1, 1, 9), (1, 5, 1, 4)]:
        with pytest.raises(ValueError, match="span start must not follow span end"):
            SourceSpan("f", *args)
    assert str(SourceSpan("f", 1, 5, 1, 5)) == "f:1:5"
    assert SourceSpan("f", 1, 9, 2, 1).end_line == 2


@pytest.mark.parametrize("kwargs,message", [
    ({"max_ticks": -1}, "max_ticks must be >= 0"),
    ({"stage_dwell": 0}, "stage_dwell must be >= 1"),
])
def test_sim_config_checks_its_values(kwargs, message):
    with pytest.raises(SimError, match=message):
        SimConfig(**kwargs)
    assert SimConfig(max_ticks=0).max_ticks == 0


def test_automaton_labels_are_built_on_first_use():
    found = automaton()
    assert "labels_at" not in vars(found)
    assert found.labels_at == {0: frozenset({"a"})}
    assert vars(found)["labels_at"] is found.labels_at
    assert found == automaton() and repr(found) == repr(automaton())
    assert pickle.loads(pickle.dumps(found)).allowed(0) == ["a"]
