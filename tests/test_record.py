"""Records: each one behaves as its stdlib ``dataclass(frozen=True)`` twin.

The twins are built with ``dataclasses.make_dataclass`` from each record's
own field spec and ``__post_init__``; the stdlib stays here as the plain-path
reference. Field values come from records that real computations build.
"""

import dataclasses
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pialg
from pialg import (IntMatrix, Presentation, StableTables, TwoStagePiAlgebra, Z, Z_GAMMA,
                   all_realizable_in_stem, check, cyclic, direct_sum, fgab, gamma_tilde, hom_group,
                   load_tables, pi_functors, problem_from_json, quad_tensor, quadratic,
                   realizability, survey_stem, tables as tables_module, three_stage_obstruction)
from pialg._record import _MISSING, FrozenInstanceError, frozen, lazy
from pialg.fgab import GroupHom
from pialg.intlinalg import SnfResult, smith_normal_form

MODULES = (fgab, pi_functors, quadratic, realizability, tables_module)
CLASSES = [c for m in MODULES for c in vars(m).values()
           if isinstance(c, type) and c.__module__ == m.__name__ and "__record_fields__" in vars(c)]
THREE_STAGE = {"n": 4, "A_n": {"rank": 0, "torsion": [2]}, "A_n1": {"rank": 0, "torsion": [2]},
               "A_n2": {"rank": 0, "torsion": [2]}, "eta1": [[1]], "eta2": [[1]]}


def _twin(cls):
    spec = [(name, object, dataclasses.field(
                default=dataclasses.MISSING if f.default is _MISSING else f.default,
                default_factory=f.factory or dataclasses.MISSING,
                init=f.init, repr=f.repr, compare=f.compare))
            for name, f in cls.__record_fields__.items()]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def _samples(per_class: int = 8) -> dict:
    """Records reachable from the results of real computations, up to ``per_class`` each."""
    t = load_tables()
    gt = gamma_tilde(5, 3, Z, t)
    three = problem_from_json(THREE_STAGE, t)
    roots = [t, all_realizable_in_stem(3, t), quad_tensor(cyclic(2), Z_GAMMA),
             direct_sum(cyclic(2), Z), hom_group(cyclic(4), cyclic(6)),
             Presentation(2, IntMatrix.from_rows([[2, 0]], cols=2)),
             survey_stem(3, t, 4, 1, [cyclic(4)]), three, three_stage_obstruction(three)]
    for eta in hom_group(gt.group, cyclic(4)):
        pa = TwoStagePiAlgebra(5, 3, Z, cyclic(4), eta)
        roots += [pa, check(pa, t)]
    roots.append(dict(t._memo))
    found, seen, stack = {}, set(), roots[::-1]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if "__record_fields__" in vars(type(x)):
            found.setdefault(type(x), []).append(x)
            stack += [getattr(x, n) for n in reversed(type(x).__record_fields__)]
        elif isinstance(x, (tuple, list)):
            stack += reversed(x)
        elif isinstance(x, Mapping):
            stack += reversed([*x.keys(), *x.values()])
    return {cls: found[cls][:per_class] for cls in found}


SAMPLES = _samples()
TWINS = {cls: _twin(cls) for cls in CLASSES}


def _init_names(cls) -> tuple:
    return tuple(n for n, f in cls.__record_fields__.items() if f.init)


def _build(cls, args, kw):
    try:
        return cls(*args, **kw)
    except Exception as exc:  # the outcome to compare is the exception's type
        return type(exc)


def test_every_record_class_is_covered():
    assert len(CLASSES) == 24
    assert set(SAMPLES) == set(CLASSES)


def test_no_field_default_stays_on_the_class():
    # Instances hold every field; a class attribute shadowed by one (such as a
    # field spec) would slow every read of that field.
    for cls in CLASSES:
        assert not cls.__record_fields__.keys() & vars(cls).keys(), cls


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_records_match_their_dataclass_twins(data):
    cls = data.draw(st.sampled_from(CLASSES))
    fields, names = cls.__record_fields__, _init_names(cls)
    pool = SAMPLES[cls]
    first = {n: getattr(data.draw(st.sampled_from(pool)), n) for n in names}
    # The second value set keeps the first one's compared fields half the time,
    # so that records differing only in compare=False fields show up.
    same = data.draw(st.booleans())
    second = {n: first[n] if same and fields[n].compare
              else getattr(data.draw(st.sampled_from(pool)), n) for n in names}
    built = []
    for values in (first, second):
        k = data.draw(st.integers(0, len(names)))
        args = [values[n] for n in names[:k]]
        # A field with a default is sometimes left out, so that the default applies.
        kw = {n: values[n] for n in names[k:] if fields[n].default is _MISSING
              and not fields[n].factory or data.draw(st.booleans())}
        built.append((_build(cls, args, kw), _build(TWINS[cls], args, kw)))
    for rec, twin in built:
        assert rec is twin if isinstance(rec, type) else repr(rec) == repr(twin)
        assert isinstance(rec, type) or (rec == rec and rec != twin and twin != rec)
    (a, ta), (b, tb) = built
    if not isinstance(a, type) and not isinstance(b, type):
        assert (a == b) is (ta == tb) and (a != b) is (ta != tb)
        assert _hash(a) == _hash(ta) and _hash(b) == _hash(tb)


def _hash(x):
    try:
        return hash(x)
    except TypeError:  # StableTables holds mapping proxies, as its twin does
        return TypeError


def test_argument_errors_match_the_twins():
    for cls in CLASSES:
        names, sample = _init_names(cls), SAMPLES[cls][0]
        values = [getattr(sample, n) for n in names]
        cases = [((), {}), ((*values, None), {}), (values, {"no_such_field": 1}),
                 ((), {**dict(zip(names, values)), "no_such_field": 1})]
        if names:
            cases.append((values[:1], {names[0]: values[0]}))
        for args, kw in cases:
            got, want = _build(cls, args, kw), _build(TWINS[cls], args, kw)
            assert (got if isinstance(got, type) else "built") == (
                want if isinstance(want, type) else "built"), (cls, args, kw)
        if any(f.default is _MISSING and not f.factory for f in cls.__record_fields__.values()):
            assert _build(cls, (), {}) is TypeError


def test_assignment_and_deletion_raise_attribute_errors():
    for cls in CLASSES:
        for obj in (SAMPLES[cls][0], _build(TWINS[cls], (), {
                n: getattr(SAMPLES[cls][0], n) for n in _init_names(cls)})):
            for name in (*cls.__record_fields__, "not_a_field"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
    with pytest.raises(FrozenInstanceError):
        Z.rank = 2


def test_default_factory_gives_each_instance_its_own_object():
    for make in (StableTables, TWINS[StableTables]):
        a, b = make(), make()
        assert a._memo == {} and a._memo is not b._memo
        assert a == b and repr(a) == repr(b)


def test_records_keep_a_dict_for_cached_properties():
    entry = load_tables().q_stable[3]
    assert entry._canon is entry._canon and "_canon" in vars(entry)


def test_lazy_fields_are_computed_once_per_instance_and_stay_frozen():
    calls = []

    @frozen(("x",))
    class A:
        def __init__(self, x):
            vars(self)["x"] = x

        y = lazy(lambda self: calls.append(self.x) or self.x + 1)

    a, b = A(1), A(2)
    assert isinstance(A.y, lazy) and not hasattr(A.y, "lock")
    assert (a.y, a.y, b.y, b.y) == (2, 2, 3, 3) and calls == [1, 2] and vars(a)["y"] == 2
    with pytest.raises(FrozenInstanceError):
        a.y = 5


def test_int_matrix_refuses_assignment_and_deletion_like_a_record():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    for name in ("rows", "cols", "data", "not_a_field"):
        # A deleted slot would leave == and hash raising AttributeError.
        with pytest.raises(FrozenInstanceError):
            delattr(m, name)
        with pytest.raises(FrozenInstanceError):
            setattr(m, name, 1)
    assert m == IntMatrix.from_rows([[1, 2], [3, 4]]) and hash(m) == hash((2, 2, m.data))


def test_frozen_keeps_the_methods_a_class_defines():
    @frozen(("x",))
    class A:
        def __init__(self, x):
            vars(self)["x"] = x

        def __repr__(self):
            return f"<{self.x}>"

    assert repr(A(1)) == "<1>" and A(1) == A(1) and A(1) != A(2)
    assert repr(IntMatrix.identity(2)) == "IntMatrix(2x2, [[1, 0], [0, 1]])"


def test_trusted_and_validated_instances_agree():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    pairs = [(IntMatrix._of(2, 2, ((2, 4), (6, 8))), m)]
    for h in hom_group(cyclic(4), cyclic(6)):
        pairs.append((GroupHom._wrap(h.source, h.target, h.matrix),
                      GroupHom(h.source, h.target, h.matrix)))
    s = smith_normal_form(m)
    pairs.append((s, SnfResult(s.u, s.d, s.v, s.u_inv, s.v_inv)))
    for built, checked in pairs:
        assert type(built) is type(checked)
        assert built == checked and hash(built) == hash(checked)
        assert repr(built) == repr(checked)
        if type(built) is GroupHom:
            assert list(vars(built)) == list(vars(checked)) == ["source", "target", "matrix"]


def test_importing_pialg_loads_no_code_generation_modules():
    src = str(Path(pialg.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pialg, pialg.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'tokenize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_importing_pialg_and_loading_tables_loads_no_json():
    # Only the CLI and JSON group or module literals need json; the library's
    # import and its default tables do not pay for it.
    src = str(Path(pialg.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pialg; pialg.load_tables(); "
            "print(sorted(m for m in sys.modules if m == 'json' or m.startswith('json.')))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
