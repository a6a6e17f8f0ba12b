import math
import random

import numpy as np
import pytest

from allab import expr as ex
from allab.expr import (
    Const,
    Func,
    Var,
    compile_field,
    compile_kernel,
    diff,
    evaluate,
    parse_expr,
    substitute,
    to_text,
)


def test_parse_single_function():
    assert parse_expr("exp(z)") == Func("exp", Var("z"))


def test_parse_keeps_nonliteral_structure():
    e = parse_expr("exp(-z)*2 + 0")
    # the +0 and *2 survive: only literal-only subtrees fold
    assert isinstance(e, ex.BinOp) and e.op == "+"
    assert evaluate(e, {"z": 0.0}) == pytest.approx(2.0, abs=0)


def test_parse_folds_literal_subtrees():
    assert parse_expr("2*3 + 1") == Const(7.0)
    assert parse_expr("x + 2*3") == ex.BinOp("+", Var("x"), Const(6.0))


def test_builders_drop_zero_and_one_but_the_parser_does_not():
    x = parse_expr("sqrt(u - 2)")
    assert ex.add(ex.ZERO, x) is x and ex.add(x, ex.ZERO) is x
    assert ex.sub(x, ex.ZERO) is x and ex.sub(ex.ZERO, x) == ex.neg(x)
    assert ex.mul(ex.ONE, x) is x and ex.mul(x, ex.ONE) is x
    assert ex.mul(ex.ZERO, x) == ex.ZERO and ex.mul(x, ex.ZERO) == ex.ZERO
    assert ex.neg(ex.neg(x)) is x
    zero = ex.neg(ex.ZERO)
    assert zero == ex.ZERO and math.copysign(1.0, zero.value) == 1.0
    # user text keeps its product with 0, so a NaN factor stays NaN
    with np.errstate(invalid="ignore"):
        parsed = compile_kernel(parse_expr("0*sqrt(u - 2)"), ("u",))(1.0)
        shifted = substitute(parse_expr("0*sqrt(u)"), {"u": parse_expr("u - 2")})
        substituted = compile_kernel(shifted, ("u",))(1.0)
    assert math.isnan(parsed) and math.isnan(substituted)


def test_sin_with_pi_parameter():
    e = parse_expr("sin(2*pi*x)")
    val = evaluate(e, {"x": 0.25, "pi": 3.14159265358979})
    assert val == pytest.approx(1.0, abs=1e-12)


def test_pi_default_binding():
    e = parse_expr("cos(pi)")
    assert evaluate(e, {}) == pytest.approx(-1.0, abs=1e-15)


def test_unary_minus_and_power():
    # -a^b parses as -(a^b); (-a)^b needs parentheses
    e = parse_expr("-2^2")
    assert evaluate(e, {}) == -4.0
    e2 = parse_expr("(-2)^2")
    assert evaluate(e2, {}) == 4.0


def test_parse_errors_report_offset():
    with pytest.raises(ex.ParseError) as err:
        parse_expr("1 + * 2")
    assert err.value.offset == 4
    with pytest.raises(ex.UnknownIdentifierError) as err2:
        parse_expr("foo + 1")
    assert err2.value.offset == 0
    assert "x" in err2.value.allowed


def test_unknown_function():
    with pytest.raises(ex.UnknownIdentifierError):
        parse_expr("tan(x)")


def test_eval_errors():
    with pytest.raises(ex.UnboundVariableError):
        evaluate(parse_expr("x + y"), {"x": 1.0})
    with pytest.raises(ex.DomainError):
        evaluate(parse_expr("log(x)"), {"x": -1.0})
    with pytest.raises(ex.DomainError):
        evaluate(parse_expr("1/x"), {"x": 0.0})


@pytest.mark.parametrize("text", ["(-8)^(1/3)", "sin(1e400)", "2^10000", "exp(1000)", "log(0)", "1/0"])
def test_parse_leaves_a_constant_evaluate_refuses_unfolded(text):
    e = parse_expr(text)
    assert not isinstance(e, Const)
    with pytest.raises(ex.DomainError):
        evaluate(e, {})


@pytest.mark.parametrize(
    "text, u", [("u^0.5", -1.0), ("u^10000", 2.0), ("sin(u)", math.inf)]
)
def test_evaluate_raises_only_domain_errors(text, u):
    with pytest.raises(ex.DomainError):
        evaluate(parse_expr(text), {"u": u})


def test_parse_refuses_deep_nesting():
    with pytest.raises(ex.ParseError, match="nested too deeply"):
        parse_expr("sin(" * 250 + "u" + ")" * 250)


def test_eval_examples():
    assert evaluate(parse_expr("exp(z)"), {"z": 0.0}) == 1.0
    v = evaluate(parse_expr("exp(z)*exp(-z)"), {"z": 7.3})
    assert v == pytest.approx(1.0, abs=1e-12)
    assert evaluate(parse_expr("exp(s)"), {"s": math.log(2.0)}) == pytest.approx(
        2.0, abs=1e-12
    )


def test_diff_exponential():
    e = parse_expr("exp(z)")
    assert diff(e, "z") == e


def test_diff_chain_rule():
    e = parse_expr("exp(-z)")
    d = diff(e, "z")
    for z in (-1.0, 0.0, 2.5):
        assert evaluate(d, {"z": z}) == pytest.approx(-math.exp(-z), rel=1e-12)


def test_diff_against_central_difference():
    e = parse_expr("sin(2*pi*x)")
    d = diff(e, "x")
    h = 1e-5
    fd = (evaluate(e, {"x": h}) - evaluate(e, {"x": -h})) / (2 * h)
    sym = evaluate(d, {"x": 0.0})
    assert sym == pytest.approx(2 * math.pi, abs=1e-12)
    assert fd == pytest.approx(sym, abs=1e-6)


def test_diff_of_absent_variable_is_zero():
    assert diff(parse_expr("exp(z)*sin(x)"), "y") == ex.ZERO


def _random_tree(rng: random.Random, depth: int) -> ex.Expr:
    """Random tree built through the folding constructors, so literal-only
    subtrees collapse exactly as the parser would collapse them."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Const(round(rng.uniform(-5, 5), 3))
        return Var(rng.choice(ex.VARIABLES))
    kind = rng.random()
    if kind < 0.55:
        op = rng.choice("+-*/^")
        a = _random_tree(rng, depth - 1)
        b = _random_tree(rng, depth - 1)
        if op == "^":
            b = Const(float(rng.randint(0, 3)))
        return ex._fold_bin(op, a, b)
    name = rng.choice(ex.FUNCTIONS)
    return ex._fold_func(name, _random_tree(rng, depth - 1))


def test_print_parse_roundtrip_on_corpus():
    rng = random.Random(20240817)
    for _ in range(600):
        tree = _random_tree(rng, rng.randint(1, 8))
        assert parse_expr(to_text(tree)) == tree
    # non-finite constants: the texts that fold to them, and random trees
    # with x, y and z replaced by inf, -inf and NaN, folded as the parser folds
    inf = Const(math.inf)
    trees = [parse_expr(t) for t in ("1e400", "-1e400", "0*1e400", "u*1e400", "u - 1e400",
                                     "(u + 1e400)^2", "u^-1e400", "-(0*1e400)*u", "sin(1e400)")]
    trees += [substitute(_random_tree(rng, rng.randint(1, 8)),
                         {"x": inf, "y": Const(-math.inf), "z": Const(math.nan)}) for _ in range(600)]
    assert to_text(trees[0]) == "1e999" and to_text(trees[2]) == "(0*1e999)"
    for tree in trees:
        again = parse_expr(to_text(tree))
        if "0*1e999" in to_text(tree):  # NaN never equals itself: compare by text
            assert to_text(again) == to_text(tree)
        else:
            assert again == tree


SMOOTH_CORPUS = [
    "exp(x/4)*sin(y) + cos(z)",
    "(x + 2)*(y - 3)/(z + 10)",
    "exp(sin(x) + cos(y))",
    "sqrt(x*x + y*y + 4)",
    "x^3 - 2*x*y + y^2*z",
    "sin(x)*sin(y)*sin(z) + exp(-x)",
    "log(x*x + 1) + z/(y*y + 2)",
]


@pytest.mark.parametrize("text", SMOOTH_CORPUS)
def test_derivative_matches_central_difference(text):
    e = parse_expr(text)
    rng = random.Random(7)
    for w in ("x", "y", "z"):
        d = diff(e, w)
        for _ in range(5):
            env = {n: rng.uniform(-1.5, 1.5) for n in ("x", "y", "z")}
            h = 1e-5
            lo = dict(env)
            hi = dict(env)
            lo[w] -= h
            hi[w] += h
            fd = (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)
            sym = evaluate(d, env)
            assert fd == pytest.approx(sym, rel=1e-6, abs=1e-6)


def test_schwarz_symmetry():
    rng = random.Random(11)
    e = parse_expr("exp(x*y/5)*sin(y + z) + x*z^2")
    for w1, w2 in (("x", "y"), ("y", "z"), ("x", "z")):
        d12 = diff(diff(e, w1), w2)
        d21 = diff(diff(e, w2), w1)
        for _ in range(100):
            env = {n: rng.uniform(-2, 2) for n in ("x", "y", "z")}
            assert evaluate(d12, env) == pytest.approx(
                evaluate(d21, env), rel=1e-9, abs=1e-9
            )


def test_substitute():
    e = parse_expr("x*x + y")
    out = substitute(e, {"x": parse_expr("u + 1"), "y": Const(2.0)})
    assert evaluate(out, {"u": 3.0}) == 18.0


def test_compile_field_matches_evaluate():
    e = parse_expr("exp(x)*sin(y) + x/(y + 3)")
    fn = compile_field(e, ("x", "y"))
    import numpy as np

    xs = np.linspace(-1, 1, 7)
    ys = np.linspace(0, 1, 7)
    got = fn(xs, ys)
    want = [evaluate(e, {"x": a, "y": b}) for a, b in zip(xs, ys)]
    assert np.allclose(got, want, atol=1e-14)


def test_compile_field_returns_the_broadcast_shape():
    import numpy as np

    fn = compile_field(parse_expr("2*pi"), ("u", "v"))
    out = fn(np.zeros((3, 1)), np.zeros(4))
    assert out.shape == (3, 4) and out.dtype == float
    assert np.all(out == 2 * math.pi)
    assert fn(0.5, 0.5).shape == ()


def test_compile_field_is_shared_by_equal_trees():
    a = compile_field(parse_expr("sin(2*pi*u) + v"), ("u", "v"))
    assert compile_field(parse_expr("sin(2*pi*u) + v"), ("u", "v")) is a
    assert compile_field(parse_expr("sin(2*pi*u) + v"), ("v", "u")) is not a


def test_compile_kernel_returns_only_what_the_tree_uses():
    import numpy as np

    u, v = np.arange(3.0)[:, None], np.arange(4.0)
    assert type(compile_kernel(parse_expr("2*pi"), ("u", "v"))(u, v)) is float
    assert compile_kernel(parse_expr("sin(2*pi*u)"), ("u", "v"))(u, v).shape == (3, 1)
    assert compile_kernel(parse_expr("v"), ("u", "v"))(u, v) is v
    for text in ("2*pi", "sin(2*pi*u)", "v", "u*v"):
        e = parse_expr(text)
        want = compile_field(e, ("u", "v"))(u, v)
        assert np.array_equal(np.broadcast_to(compile_kernel(e, ("u", "v"))(u, v), (3, 4)), want)
    assert compile_kernel(parse_expr("u*v"), ("u", "v")) is compile_kernel(
        parse_expr("u*v"), ("u", "v"))


@pytest.mark.parametrize("text, name", [("z", "z"), ("sin(2*pi*u) + x*v", "x")])
def test_compile_kernel_refuses_a_variable_it_does_not_bind(text, name):
    for compile_ in (compile_kernel, compile_field):
        with pytest.raises(ex.UnboundVariableError, match=f"variable '{name}' is not bound"):
            compile_(parse_expr(text), ("u", "v"))
    assert compile_kernel(parse_expr(text), ("u", "v", "x", "z"))  # pi is a constant


@pytest.mark.parametrize("text", ["1e400*u", "u - 1e400", "u + 1e400*0"])
def test_compile_field_emits_non_finite_constants(text):
    import numpy as np

    e = parse_expr(text)
    fn = compile_field(e, ("u", "v"))
    us = np.array([2.0, -1.0])
    got = fn(us, 0.0)
    want = [evaluate(e, {"u": u, "v": 0.0}) for u in us]
    assert np.array_equal(got, want, equal_nan=True)


def test_internal_bump_primitives():
    t = Var("z")
    bump = ex.pow_(ex.func("pos", ex.sub(Const(1.0), ex.mul(t, t))), Const(3.0))
    assert evaluate(bump, {"z": 0.0}) == 1.0
    assert evaluate(bump, {"z": 2.0}) == 0.0
    d = diff(bump, "z")
    h = 1e-6
    for z0 in (0.3, -0.7, 1.5):
        fd = (evaluate(bump, {"z": z0 + h}) - evaluate(bump, {"z": z0 - h})) / (2 * h)
        assert evaluate(d, {"z": z0}) == pytest.approx(fd, abs=1e-6)


def test_compile_field_keeps_a_negative_constant_base():
    fn = compile_field(parse_expr("(-2)^u"), ("u",))
    for u in (2.0, 3.0):
        assert fn(u) == evaluate(parse_expr("(-2)^u"), {"u": u})


@pytest.mark.parametrize(
    "text, want",
    [("u + 1/0", math.inf), ("2 + 2^10000*u", math.inf), ("(-8)^(1/3) + 1", math.nan),
     ("u + pi/0", math.inf), ("u + (2*pi)/0", math.inf), ("(-pi)^0.5 + 1", math.nan)],
)
def test_compile_field_gives_numpys_value_for_a_constant_evaluate_refuses(text, want):
    import numpy as np

    with np.errstate(all="ignore"):
        got = compile_field(parse_expr(text), ("u",))(np.array([0.5, 1.0]))
    assert np.array_equal(got, [want, want], equal_nan=True)


def _box(rng, names, scale):
    """Random boxes, 20 per variable: centres in [-3, 3], half-widths up to scale."""
    import numpy as np

    c = rng.uniform(-3.0, 3.0, (len(names), 20))
    w = rng.uniform(0.0, scale, (len(names), 20))
    return {n: (c[i] - w[i], c[i] + w[i]) for i, n in enumerate(names)}


def test_interval_encloses_every_finite_kernel_value():
    import numpy as np

    rng, nprng = random.Random(20240817), np.random.default_rng(31)
    trees = [_random_tree(rng, rng.randint(1, 8)) for _ in range(600)]
    trees += [parse_expr(text) for text in SMOOTH_CORPUS]
    bounded = 0
    for k, tree in enumerate(trees):
        box = _box(nprng, ex.VARIABLES, (1e-3, 0.1, 1.0, 3.0)[k % 4])
        lo, hi = (np.broadcast_to(a, (20,)) for a in ex.interval(tree, box))
        assert not (lo > hi).any()
        bounded += np.isfinite(lo).all()
        fn = compile_kernel(tree, ex.VARIABLES)
        corners = [[box[n][(c >> i) & 1] for i, n in enumerate(ex.VARIABLES)] for c in range(64)]
        ends = [box[n] for n in ex.VARIABLES]
        inside = [[np.clip(a + f[i] * (b - a), a, b) for i, (a, b) in enumerate(ends)]
                  for f in nprng.uniform(0.0, 1.0, (20, len(ends), 20))]
        with np.errstate(all="ignore"):
            for point in corners + inside:
                value = np.broadcast_to(fn(*point), (20,))
                ok = ~np.isfinite(value) | ((lo <= value) & (value <= hi))
                assert ok.all(), (to_text(tree), lo[~ok], value[~ok], hi[~ok])
    assert bounded > len(trees) // 2  # the enclosure is not (-inf, inf) everywhere


def test_interval_of_a_constant_tree_is_its_value():
    for text in ("2.5", "-3", "2*pi"):
        value = evaluate(parse_expr(text), {})
        lo, hi = ex.interval(parse_expr(text), {})
        assert lo <= value <= hi and hi - lo <= 1e-12 * abs(value)
    assert ex.interval(parse_expr("2.5"), {}) == (2.5, 2.5)


def test_interval_keeps_the_shape_of_the_variables_used():
    import numpy as np

    box = {"u": (np.zeros((3, 1)), np.ones((3, 1))), "v": (np.zeros(4), np.ones(4))}
    for text, shape in (("sin(2*pi*u)", (3, 1)), ("v", (4,)), ("u*v", (3, 4)), ("pi", ())):
        assert [np.shape(a) for a in ex.interval(parse_expr(text), box)] == [shape] * 2
    with pytest.raises(ex.UnboundVariableError, match="'z'"):
        ex.interval(parse_expr("u + z"), box)


@pytest.mark.parametrize("text, box", [
    ("log(u - 0.5)", (0.4, 0.6)),
    ("log(u - 0.5)", (0.5, 0.6)),
    ("sqrt(u - 0.5)", (0.4, 0.6)),
    ("1/(u - 0.5)", (0.4, 0.6)),
    ("(u - 0.5)^0.5", (0.5, 0.6)),
    ("exp(1000*u)", (0.5, 0.8)),
    ("sin(1/(u - 0.5))", (0.4, 0.6)),
])
def test_interval_is_unbounded_where_the_tree_is(text, box):
    import numpy as np

    lo, hi = ex.interval(parse_expr(text), {"u": tuple(map(np.array, box))})
    assert (lo, hi) == (-math.inf, math.inf)
    # a box that keeps away from the bad point is bounded
    assert np.isfinite(ex.interval(parse_expr(text), {"u": (np.array(0.61), np.array(0.62))})).all()


def test_every_reader_reads_a_tree_900_levels_deep():
    e, value = Var("u"), 0.5
    for _ in range(450):
        e, value = ex.add(ex.func("cos", e), Var("v")), math.cos(value) + 0.25
    assert evaluate(e, {"u": 0.5, "v": 0.25}) == value
    assert evaluate(substitute(e, {"v": Const(0.25)}), {"u": 0.5}) == value
    assert isinstance(diff(e, "u"), Func) and diff(e, "x") == ex.ZERO
    assert to_text(e).count("cos(") == 450
    lo, hi = ex.interval(e, {"u": (0.5, 0.5), "v": (0.25, 0.25)})
    assert lo <= value <= hi
