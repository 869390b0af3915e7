"""The fiberwise calculus of a finite colored operad over Fin_*.

Lurie's side of the comparison, built on Fin_* (``levelforest``) and the
finite operads with the maps out of free forest operads (``omegacat``):

* the fiberwise presentation of the category of operators: a morphism over
  a pointed map is a family of one operation per target element, composition
  is substitution, and inert maps act by restriction;
* :func:`check_fibrous`, which verifies at the set level that the
  presentation behaves fibrously, in three sections over one per-call hom
  memo (:class:`_Checks`): cocartesian lifts of inerts with their
  universal property, fibers decomposing as products, mapping into a tuple
  computed componentwise; :func:`check_category` over the same memo; and
  :func:`defect_fixtures`, five deliberately broken presentations;
* chains of the presentation over a level diagram, in bijection with maps
  out of the free operad of the diagram's forest, naturally in the diagram
  (``omegacat.precompose``).  The chains are counted and listed from
  per-level tables (:func:`_chain_tables`, whose level 0 holds only the
  colorings with an arrow out); one walk of those tables yields each chain
  with its image (:func:`_walk_chains`), for the listing and the nerve check;
* free algebra term sets with their symmetrization quotient; over a cut
  operad the terms are counted by ``omegacat._counts`` and only the cuts
  whose inputs all take an argument are folded (``omegacat._fold``).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations_with_replacement, product
from random import Random
from typing import Any, NamedTuple

from .levelforest import Elem, FinPtdMor, FinPtdObj, FinSimplex, _Inerts, _PointedMaps, edge_name, rho
from .levelforest import restrict as restrict_simplex
from .omegacat import FiniteOperad, ForestInto, FreeForestOperad, Label, _counts, _CutOperad, _fold, _forest_into
from .omegacat import _gather, _operation, _rows_above
from .treecore import TreeError, _cached, _checked_make, parse_forest

# Defined in lower modules and bound here too: perfbench reads them through
# ``lurie``, its tracer naming their spans ``lurie.*`` and wrapping a
# function in every module that binds it.
from .omegacat import TableOperad, maps_into, segal_components_check, segal_cut_check  # noqa: F401
from .shuffle import BVTensorOperad  # noqa: F401

__all__ = [
    "EllObject",
    "EllMorphism",
    "ell_hom",
    "ell_identity",
    "ell_compose",
    "EllPresentation",
    "FibrousReport",
    "check_fibrous",
    "CategoryReport",
    "check_category",
    "defect_fixtures",
    "Chain",
    "enumerate_chains",
    "chain_to_map",
    "map_to_chain",
    "restrict_chain",
    "FreeTerm",
    "free_algebra",
]


# ---------------------------------------------------------------------------
# the fiberwise presentation
# ---------------------------------------------------------------------------


class EllObject(namedtuple("EllObject", "base colors")):
    """A pointed set with a color of the operad for each element: the tuple
    ``(base, colors)``, hashed and compared in C."""

    base: FinPtdObj
    colors: tuple[str, ...]
    _make = classmethod(_checked_make)

    def __new__(cls, base: FinPtdObj, colors: tuple[str, ...]) -> "EllObject":
        if len(colors) != len(base.elements):
            raise TreeError("need exactly one color per element")
        return tuple.__new__(cls, (base, colors))

    def color_of(self, x: Elem) -> str:
        return self.colors[self.base.position[x]]


class EllMorphism(namedtuple("EllMorphism", "alpha src dst components")):
    """A morphism over a pointed map: one operation per target element,
    accepting the colors of that element's fiber.  The tuple ``(alpha,
    src, dst, components)``, hashed and compared in C."""

    alpha: FinPtdMor
    src: EllObject
    dst: EllObject
    components: tuple[tuple[Elem, Label], ...]

    @_cached
    def component(self) -> dict[Elem, Label]:
        return dict(self.components)


_ell_obj = partial(tuple.__new__, EllObject)
_ell_mor = partial(tuple.__new__, EllMorphism)


def _choices(
    p: FiniteOperad, gamma: FinPtdMor, src: EllObject
) -> list[list[tuple[Elem, str, Label]]]:
    """For each target element ``k`` of ``gamma``, every ``(k, output color,
    operation)`` choice accepting the colors of ``k``'s fiber in ``src``."""
    colors = src.colors
    return [
        [(k, c, lab) for c, lab in p.ops_for_inputs([colors[i] for i in slot])]
        for k, slot in zip(gamma.dst.elements, gamma.slots)
    ]


def _arrow(
    gamma: FinPtdMor, src: EllObject, combo: Sequence[tuple[Elem, str, Label]]
) -> tuple[EllObject, EllMorphism]:
    """The target and the morphism out of ``src`` over ``gamma`` given by one
    :func:`_choices` entry per target element."""
    dst = _ell_obj((gamma.dst, tuple([c for _, c, _ in combo])))
    return dst, _ell_mor((gamma, src, dst, tuple([(k, lab) for k, _, lab in combo])))


def ell_hom(
    p: FiniteOperad, alpha: FinPtdMor, src: EllObject, dst: EllObject
) -> tuple[EllMorphism, ...]:
    """All morphisms from ``src`` to ``dst`` over ``alpha``: the product over
    target elements of the operation sets at the fiber colorings (empty as
    soon as one of those sets is)."""
    (a_src, a_dst, _), (s_base, colors), (d_base, d_colors) = alpha, src, dst
    if (a_src is not s_base and a_src != s_base) or (a_dst is not d_base and a_dst != d_base):
        raise TreeError("objects do not sit over the pointed map")
    targets = d_base.elements
    per_elem = []
    for slot, color in zip(alpha.slots, d_colors):
        labels = p.ops([colors[i] for i in slot], color)
        if not labels:
            return ()
        per_elem.append(labels)
    return tuple([_ell_mor((alpha, src, dst, tuple(zip(targets, combo))))
                  for combo in product(*per_elem)])


def ell_identity(p: FiniteOperad, x: EllObject) -> EllMorphism:
    base, colors = x
    comps = tuple(zip(base.elements, map(p.identity, colors)))
    return _ell_mor((FinPtdMor.identity(base), x, x, comps))


def ell_compose(p: FiniteOperad, g: EllMorphism, f: EllMorphism) -> EllMorphism:
    """The composite ``g`` after ``f``: substitute the components of ``f``
    into each component of ``g`` along the fibers of ``g``'s map."""
    (g_alpha, mid, g_dst, _), (f_alpha, f_src, f_dst, _) = g, f
    if f_dst is not mid and f_dst != mid:
        raise TreeError("fiberwise morphisms do not compose")
    elements, colors = mid.base.elements, mid.colors
    f_comp, g_comp, subst = f.component, g.component, p.subst
    comps = []
    for k, slot in zip(g_dst.base.elements, g_alpha.slots):
        args = {colors[i]: f_comp[elements[i]] for i in slot}
        comps.append((k, subst(g_comp[k], args)))
    return _ell_mor((g_alpha.after(f_alpha), f_src, g_dst, tuple(comps)))


class EllPresentation:
    """The fiberwise presentation of a finite operad, as the checks see it.

    Every listing, composition, and lift the fibrous checks use goes
    through these methods.  ``admit`` gives the multiplicity with which a
    structurally valid morphism is listed — always 1 here; the defect
    fixtures override it (or ``compose`` / ``inert_lift``) to misbehave in
    controlled ways.
    """

    def __init__(self, p: FiniteOperad):
        self.operad = p

    def admit(
        self, alpha: FinPtdMor, src: EllObject, dst: EllObject, mor: EllMorphism
    ) -> int:
        return 1

    def hom(
        self, alpha: FinPtdMor, src: EllObject, dst: EllObject
    ) -> tuple[EllMorphism, ...]:
        out = []
        for m in ell_hom(self.operad, alpha, src, dst):
            out.extend([m] * self.admit(alpha, src, dst, m))
        return tuple(out)

    def arrows_from(
        self, gamma: FinPtdMor, src: EllObject
    ) -> tuple[tuple[EllObject, EllMorphism], ...]:
        """Every morphism out of ``src`` over ``gamma`` paired with its
        target, targets enumerated by reachability (one ``(output color,
        operation)`` choice per target element)."""
        if gamma.src != src.base:
            raise TreeError("source object does not sit over the map")
        return self._admitted(gamma, src, _choices(self.operad, gamma, src))

    def _admitted(
        self, gamma: FinPtdMor, src: EllObject, choices: list[list[tuple[Elem, str, Label]]]
    ) -> tuple[tuple[EllObject, EllMorphism], ...]:
        """The arrows of :meth:`arrows_from`, from its :func:`_choices`."""
        out = []
        for combo in product(*choices):
            dst, mor = _arrow(gamma, src, combo)
            out.extend([(dst, mor)] * self.admit(gamma, src, dst, mor))
        return tuple(out)

    def compose(self, g: EllMorphism, f: EllMorphism) -> EllMorphism:
        return ell_compose(self.operad, g, f)

    def inert_lift(self, alpha: FinPtdMor, src: EllObject) -> EllMorphism:
        """The canonical lift of an inert map out of ``src``: restrict the
        coloring and use identity operations."""
        if not alpha.is_inert:
            raise TreeError("lifts are taken over inert maps only")
        targets = alpha.dst.elements
        colors = tuple([src.colors[slot[0]] for slot in alpha.slots])
        dst = _ell_obj((alpha.dst, colors))
        return _ell_mor((alpha, src, dst, tuple(zip(targets, map(self.operad.identity, colors)))))


# ---------------------------------------------------------------------------
# fibrous checks
# ---------------------------------------------------------------------------


@dataclass
class FibrousReport:
    cocartesian_checked: int = 0
    fiber_products_checked: int = 0
    component_formulas_checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _sample(rng: Random, pool: Sequence, k: int) -> list:
    """``rng.sample(pool, k)``, or all of ``pool`` when it has at most ``k``
    members.  The sample is drawn on the indices, which takes the same
    draws and picks the same positions (``Random.sample`` copies a small
    pool into a list first), so only the picked members are read."""
    if len(pool) <= k:
        return list(pool)
    return [pool[i] for i in rng.sample(range(len(pool)), k)]


def _coloring_pool(
    colors: Sequence[str], rng: Random, m: int, k: int
) -> list[tuple[str, ...]]:
    if not colors:
        return []
    total = len(colors) ** m
    if total <= k:
        return list(product(colors, repeat=m))
    # 3k colourings, each colour drawn as ``rng.choice(colors)`` draws it
    n, draw, bits = len(colors), rng.getrandbits, len(colors).bit_length()
    drawn = []
    for _ in range(3 * k * m):
        r = draw(bits)
        while r >= n:
            r = draw(bits)
        drawn.append(colors[r])
    return _sample(rng, sorted(set(zip(*[iter(drawn)] * m))), k)


def _sampled_arrows(
    pres: EllPresentation,
    rng: Random,
    gamma: FinPtdMor,
    src: EllObject,
    budget: int,
) -> list[tuple[EllObject, EllMorphism]]:
    """Morphisms out of ``src`` over ``gamma``: all of them when few, else a
    random selection assembled choice-by-choice."""
    choices = _choices(pres.operad, gamma, src)
    if math.prod(len(opts) for opts in choices) <= budget:
        return list(pres._admitted(gamma, src, choices))
    return [_arrow(gamma, src, [rng.choice(opts) for opts in choices]) for _ in range(budget)]


def check_fibrous(
    pres: EllPresentation,
    truncation: int = 4,
    rng: Random | None = None,
    *,
    colorings_per_shape: int = 2,
    inerts_per_shape: int = 4,
    betas_per_lift: int = 4,
    arrows_budget: int = 8,
    pairs_per_fiber: int = 3,
    max_failures: int = 25,
    stop_on_failure: bool = False,
) -> FibrousReport:
    """Verify, on finite sets, that the presentation behaves like the
    category of operators of an operad over pointed sets, in three
    sections run in this order:

    * every inert map has its canonical lift listed, and every morphism out
      of the lift's source factors uniquely through the lift (checked
      against all compatible test arrows up to ``truncation``, sampling
      colorings and arrows under the given budgets;
      :func:`_lift_failures`);
    * morphisms over an identity are exactly tuples of morphisms between
      the restrictions to single elements, via the collapse lifts
      (:func:`_fiber_failures`);
    * morphisms into an object over ``<m>`` are computed componentwise
      through the collapse lifts (:func:`_component_failures`).

    The report keeps the first ``max_failures`` failures.  With
    ``stop_on_failure`` it is returned as soon as the first failure is
    recorded: it then holds that one failure, the full run's first, and
    counts only the checks made up to it; use it when only
    ``report.passed`` is read.  A ``truncation`` below 0, or a sampling
    budget or ``max_failures`` below 1, which would run no check of some
    kind or keep no failure and so pass vacuously, raises
    :class:`TreeError`.

    The sections share one :class:`_Checks`, whose memo lists each hom at
    most once per call.  Random draws and comparisons are those of listing
    every hom afresh.
    """
    _check_budgets(
        "check_fibrous",
        truncation,
        colorings_per_shape=colorings_per_shape,
        inerts_per_shape=inerts_per_shape,
        betas_per_lift=betas_per_lift,
        arrows_budget=arrows_budget,
        pairs_per_fiber=pairs_per_fiber,
        max_failures=max_failures,
    )
    ctx = _Checks(pres, FibrousReport(), truncation, rng)
    failures = chain(
        _lift_failures(ctx, colorings_per_shape, inerts_per_shape, betas_per_lift, arrows_budget),
        _fiber_failures(ctx, pairs_per_fiber),
        _component_failures(ctx, colorings_per_shape, betas_per_lift),
    )
    return _gathered(ctx.report, failures, max_failures, stop_on_failure)


def _check_budgets(check: str, truncation: int, **budgets: int) -> None:
    """Refuse a truncation below 0, or a budget below 1, which would run no
    check of some kind or keep no failure and so pass vacuously."""
    if truncation < 0:
        raise TreeError(f"{check} needs truncation >= 0, got {truncation}")
    for name, value in budgets.items():
        if value < 1:
            raise TreeError(f"{check} needs {name} >= 1, got {value}")


def _gathered(report: Any, failures: Iterator[str], max_failures: int, stop_on_failure: bool) -> Any:
    """``report`` with the first ``max_failures`` of ``failures`` kept, or
    only the first one with ``stop_on_failure``, which then stops the
    checks there."""
    for msg in failures:
        if len(report.failures) < max_failures:
            report.failures.append(msg)
        if stop_on_failure:
            break
    return report


class _Checks:
    """One call of :func:`check_fibrous` or :func:`check_category`, shared
    by its sections: the presentation, the report whose counters they
    raise, the generator, the truncation, the operad's colours, the skeleta
    ``<0>`` to ``<truncation>`` with the pointed maps out of each, and the
    call's hom memo.

    Each hom ``pres.hom(alpha, src, dst)`` is listed at most once per call:
    the memo, keyed by the caller's tuple ``(alpha, src, dst)`` (hashed in
    C), keeps the listing with its multiplicities (counts use it, so a
    family listed twice, as in the ``duplicate-family`` fixture, still
    counts twice) and, once membership is asked, the set of its morphisms.
    The memo goes with the call; only Fin_* outlives it: the maps between
    skeleta (at most sum over n, m <= truncation of (m + 1) ** n, ``_MAPS``)."""

    def __init__(self, pres: EllPresentation, report: Any, truncation: int, rng: Random | None) -> None:
        self.pres, self.report, self.truncation, self.rng = pres, report, truncation, rng or Random(0)
        self.colors = pres.operad.colors()
        self.skeleta = [FinPtdObj.skeleton(m) for m in range(truncation + 1)]
        self.maps_out = {base: _PointedMaps(base, self.skeleta) for base in self.skeleta}
        self._listings: dict[tuple, tuple[EllMorphism, ...]] = {}
        self._members: dict[tuple, frozenset[EllMorphism]] = {}

    def listed(self, alpha: FinPtdMor, src: EllObject, dst: EllObject) -> tuple[EllMorphism, ...]:
        key = (alpha, src, dst)
        found = self._listings.get(key)
        if found is None:
            found = self._listings[key] = self.pres.hom(alpha, src, dst)
        return found

    def has(self, alpha: FinPtdMor, src: EllObject, dst: EllObject, mor: EllMorphism) -> bool:
        """Whether ``mor`` is listed in the hom ``(alpha, src, dst)``."""
        key = (alpha, src, dst)
        found = self._members.get(key)
        if found is None:
            found = self._members[key] = frozenset(self.listed(alpha, src, dst))
        return mor in found


def _lift_failures(
    ctx: _Checks, colorings_per_shape: int, inerts_per_shape: int, betas_per_lift: int, arrows_budget: int
) -> Iterator[str]:
    """Cocartesian lifts of inerts and their universal property, counted
    in ``cocartesian_checked``: each failure yielded when found."""
    pres, rng, listed, has = ctx.pres, ctx.rng, ctx.listed, ctx.has
    for m, src_base in enumerate(ctx.skeleta):
        inerts = _Inerts(src_base)
        for c in _coloring_pool(ctx.colors, rng, m, colorings_per_shape):
            x = _ell_obj((src_base, c))
            for alpha in _sample(rng, inerts, inerts_per_shape):
                lift = pres.inert_lift(alpha, x)
                ctx.report.cocartesian_checked += 1
                if not has(alpha, x, lift.dst, lift):
                    yield (
                        f"lift over {alpha.values} from colors {c} is not "
                        "among the listed morphisms"
                    )
                    continue
                y = lift.dst
                betas = ctx.maps_out.get(y.base) or _PointedMaps(y.base, ctx.skeleta)
                for beta in _sample(rng, betas, betas_per_lift):
                    gamma = beta.after(alpha)
                    # per target: how often each composite ``g ∘ lift`` occurs
                    through_lift: dict[EllObject, Counter[EllMorphism]] = {}
                    for z_obj, h in _sampled_arrows(pres, rng, gamma, x, arrows_budget):
                        if not has(gamma, x, z_obj, h):
                            yield (
                                f"componentwise morphism over {gamma.values} "
                                f"from colors {c} is not listed"
                            )
                            continue
                        if z_obj not in through_lift:
                            through_lift[z_obj] = Counter(
                                pres.compose(g, lift) for g in listed(beta, y, z_obj)
                            )
                        matches = through_lift[z_obj][h]
                        if matches != 1:
                            yield (
                                f"universal property: {matches} factorizations "
                                f"over beta={beta.values} of a morphism over "
                                f"{gamma.values} through the lift over "
                                f"{alpha.values} from colors {c}"
                            )


def _fiber_failures(ctx: _Checks, pairs_per_fiber: int) -> Iterator[str]:
    """Fibres over ``<m>`` as products of fibres over ``<1>``, counted in
    ``fiber_products_checked``: each failure yielded when found.  Every
    morphism's projections are composed, even after one that is not
    listed."""
    pres, rng, listed, has = ctx.pres, ctx.rng, ctx.listed, ctx.has
    one = FinPtdObj.skeleton(1)
    id_one = FinPtdMor.identity(one)
    for m in range(1, ctx.truncation + 1):
        base = ctx.skeleta[m]
        ident = FinPtdMor.identity(base)
        rhos = [rho(m, i) for i in base.elements]
        pool = _coloring_pool(ctx.colors, rng, m, 2 * pairs_per_fiber)
        pairs = [(a, b) for a in pool for b in pool]
        for c, d in _sample(rng, pairs, pairs_per_fiber):
            x, y = _ell_obj((base, c)), _ell_obj((base, d))
            ctx.report.fiber_products_checked += 1
            lhs = listed(ident, x, y)
            factors = [
                (_ell_obj((one, (c[i],))), _ell_obj((one, (d[i],)))) for i in range(m)
            ]
            expected = math.prod(len(listed(id_one, xi, yi)) for xi, yi in factors)
            if len(lhs) != expected:
                yield (
                    f"fiber over <{m}> at colors {c} -> {d}: {len(lhs)} "
                    f"morphisms, expected the product {expected}"
                )
                continue
            lifts = [pres.inert_lift(r, y) for r in rhos]
            seen = set()
            ok = True
            for g in lhs:
                projections = []
                for lift_i, (xi, yi) in zip(lifts, factors):
                    gi = pres.compose(lift_i, g)
                    single = _ell_mor(
                        (id_one, xi, _ell_obj((one, (gi.dst.colors[0],))), ((1, gi.component[1]),))
                    )
                    if not has(id_one, xi, yi, single):
                        ok = False
                    projections.append(gi)
                seen.add(tuple(projections))
            if not ok or len(seen) != len(lhs):
                yield (
                    f"fiber projections over <{m}> at colors {c} -> {d} "
                    "are not jointly bijective"
                )


def _component_failures(ctx: _Checks, colorings_per_shape: int, betas_per_lift: int) -> Iterator[str]:
    """Maps into a tuple computed componentwise through the collapse lifts,
    counted in ``component_formulas_checked``: each failure yielded when
    found.  A morphism's projections stop at the first that is not
    listed."""
    pres, rng, listed, has = ctx.pres, ctx.rng, ctx.listed, ctx.has
    for m in range(1, ctx.truncation + 1):
        tuple_base = ctx.skeleta[m]
        rhos = [rho(m, i) for i in tuple_base.elements]
        into = [_PointedMaps(y_base, (tuple_base,)) for y_base in ctx.skeleta]
        for c_x in _coloring_pool(ctx.colors, rng, m, colorings_per_shape):
            x = _ell_obj((tuple_base, c_x))
            lifts = [pres.inert_lift(r, x) for r in rhos]
            for ym, y_base in enumerate(ctx.skeleta):
                for f in _sample(rng, into[ym], betas_per_lift):
                    legs = [(r.after(f), lift.dst) for r, lift in zip(rhos, lifts)]
                    for c_y in _coloring_pool(ctx.colors, rng, ym, colorings_per_shape):
                        y = _ell_obj((y_base, c_y))
                        ctx.report.component_formulas_checked += 1
                        lhs = listed(f, y, x)
                        expected = math.prod(len(listed(leg, y, z)) for leg, z in legs)
                        if len(lhs) != expected:
                            yield (
                                f"componentwise count over f={f.values} into "
                                f"colors {c_x}: {len(lhs)} vs {expected}"
                            )
                            continue
                        seen = set()
                        ok = True
                        for g in lhs:
                            tup = []
                            for lift, (leg, z) in zip(lifts, legs):
                                gi = pres.compose(lift, g)
                                if not has(leg, y, z, gi):
                                    ok = False
                                    break
                                tup.append(gi)
                            else:
                                seen.add(tuple(tup))
                        if not ok or len(seen) != len(lhs):
                            yield (
                                f"componentwise projections over f={f.values} "
                                f"into colors {c_x} are not jointly bijective"
                            )


# -- the category check ------------------------------------------------------


@dataclass
class CategoryReport:
    identities_checked: int = 0
    units_checked: int = 0
    pairs_checked: int = 0
    triples_checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_category(
    pres: EllPresentation,
    truncation: int = 2,
    rng: Random | None = None,
    *,
    max_failures: int = 25,
    stop_on_failure: bool = False,
) -> CategoryReport:
    """Verify, on objects over ``<m>`` for ``m`` up to ``truncation``, that
    the presentation is a category, which :func:`check_fibrous` takes for
    granted:

    * the identity (:func:`ell_identity`) of each object is listed, and is
      a unit on both sides for each morphism out of the object;
    * the composite of each composable pair is listed, over the composite
      pointed map, from the first source to the second target;
    * composition is associative on triples.

    Every coloring of every ``<m>`` is an object, and the morphisms out of
    an object are those :meth:`EllPresentation.arrows_from` lists over
    every pointed map into the skeleta up to ``truncation``.  Every
    morphism out of an object is paired with every morphism out of its
    target, and each pair with one morphism out of the pair's target,
    drawn with ``rng``, since all triples are several times as many.
    Failures are kept as :func:`check_fibrous` keeps them, and homs are
    listed through the same :class:`_Checks` memo; a ``truncation`` below 0
    or a ``max_failures`` below 1 raises :class:`TreeError`.
    """
    _check_budgets("check_category", truncation, max_failures=max_failures)
    ctx = _Checks(pres, CategoryReport(), truncation, rng)
    return _gathered(ctx.report, _category_failures(ctx), max_failures, stop_on_failure)


def _category_failures(ctx: _Checks) -> Iterator[str]:
    """The checks of :func:`check_category`, each failure yielded when
    found and the report's counters raised as the checks are made."""
    p, compose, has, report = ctx.pres.operad, ctx.pres.compose, ctx.has, ctx.report
    listed_out: dict[EllObject, list[EllMorphism]] = {}

    def out_of(x: EllObject) -> list[EllMorphism]:
        found = listed_out.get(x)
        if found is None:
            found = listed_out[x] = [
                mor for gamma in ctx.maps_out[x.base] for _, mor in ctx.pres.arrows_from(gamma, x)
            ]
        return found

    def closed(g: EllMorphism, f: EllMorphism) -> EllMorphism | None:
        """``g ∘ f`` when it is listed over the composite map, from ``f``'s
        source to ``g``'s target; else ``None``."""
        gf = compose(g, f)
        if gf[:3] == (g.alpha.after(f.alpha), f.src, g.dst) and has(*gf[:3], gf):
            return gf
        return None

    def unlisted(g: EllMorphism, f: EllMorphism) -> str:
        return (
            f"the composite of morphisms over {f.alpha.values} and "
            f"{g.alpha.values} from colors {f.src.colors} is not listed"
        )

    for m, base in enumerate(ctx.skeleta):
        for c in product(ctx.colors, repeat=m):
            x = _ell_obj((base, c))
            ident = ell_identity(p, x)
            report.identities_checked += 1
            if not has(*ident[:3], ident):
                yield f"the identity of colors {c} is not listed"
            for f in out_of(x):
                report.units_checked += 1
                if compose(f, ident) != f or compose(ell_identity(p, f.dst), f) != f:
                    yield (
                        f"the identities are not units for a morphism over "
                        f"{f.alpha.values} from colors {c}"
                    )
                for g in out_of(f.dst):
                    report.pairs_checked += 1
                    gf = closed(g, f)
                    if gf is None:
                        yield unlisted(g, f)
                        continue
                    for h in _sample(ctx.rng, out_of(g.dst), 1):
                        report.triples_checked += 1
                        hg = closed(h, g)
                        if hg is None:
                            yield unlisted(h, g)
                        elif compose(h, gf) != compose(hg, f):
                            yield (
                                f"composition is not associative over {f.alpha.values}, "
                                f"{g.alpha.values} and {h.alpha.values} from colors {c}"
                            )


# -- defect fixtures ---------------------------------------------------------


class _DropBinaryCollapse(EllPresentation):
    """Silently forgets every morphism over an active map ``<2> -> <1>``."""

    def admit(self, alpha, src, dst, mor):  # noqa: D102
        if alpha.is_active and len(alpha.src) == 2 and len(alpha.dst) == 1:
            return 0
        return 1


class _DropRestrictionFamilies(EllPresentation):
    """Forgets the identity-component morphisms over proper inert maps."""

    def admit(self, alpha, src, dst, mor):  # noqa: D102
        if alpha.is_inert and not alpha.is_identity:
            idents = [
                self.operad.identity(dst.color_of(k)) for k, _ in mor.components
            ]
            if [lab for _, lab in mor.components] == idents:
                return 0
        return 1


class _DuplicateActiveFamilies(EllPresentation):
    """Lists every morphism over a proper active map twice."""

    def admit(self, alpha, src, dst, mor):  # noqa: D102
        if alpha.is_active and not alpha.is_identity:
            return 2
        return 1


class _ForgetfulCompose(EllPresentation):
    """Composition that collapses the first non-identity component to an
    identity of the right output color."""

    def compose(self, g, f):  # noqa: D102
        honest = super().compose(g, f)
        comps = list(honest.components)
        for i, (k, lab) in enumerate(comps):
            ident = self.operad.identity(honest.dst.color_of(k))
            if lab != ident:
                comps[i] = (k, ident)
                return EllMorphism(
                    honest.alpha, honest.src, honest.dst, tuple(comps)
                )
        return honest


class _SkewLift(EllPresentation):
    """Inert lifts that sneak in a non-identity unary operation whenever the
    operad has one available."""

    def inert_lift(self, alpha, src):  # noqa: D102
        honest = super().inert_lift(alpha, src)
        colors = list(honest.dst.colors)
        comps = list(honest.components)
        for i, (k, lab) in enumerate(comps):
            c = colors[i]
            for out_color, cand in self.operad.ops_for_inputs((c,)):
                if cand != self.operad.identity(c) or out_color != c:
                    colors[i] = out_color
                    comps[i] = (k, cand)
                    dst = EllObject(honest.dst.base, tuple(colors))
                    return EllMorphism(alpha, src, dst, tuple(comps))
        return honest


def defect_fixtures() -> tuple[tuple[str, EllPresentation], ...]:
    """Five presentations over one small free forest operad, each broken in
    one way the fibrous checks must detect: a forgotten family over an
    active collapse, forgotten restriction morphisms over inerts, a
    duplicated family, a lossy composition, and a skewed inert lift."""
    base = parse_forest("{r[a[x],b[]]}")
    return (
        ("drop-active-family", _DropBinaryCollapse(FreeForestOperad(base))),
        ("drop-restrictions", _DropRestrictionFamilies(FreeForestOperad(base))),
        ("duplicate-family", _DuplicateActiveFamilies(FreeForestOperad(base))),
        ("lossy-compose", _ForgetfulCompose(FreeForestOperad(base))),
        ("skew-lift", _SkewLift(FreeForestOperad(base))),
    )


# ---------------------------------------------------------------------------
# chains and the nerve bijection
# ---------------------------------------------------------------------------


class Chain(namedtuple("Chain", "simplex objects arrows")):
    """A chain of fiberwise morphisms lying over a level diagram: the tuple
    ``(simplex, objects, arrows)``, hashed and compared in C."""

    simplex: FinSimplex
    objects: tuple[EllObject, ...]
    arrows: tuple[EllMorphism, ...]


_chain = partial(tuple.__new__, Chain)


class _ChainTables(NamedTuple):
    """What :func:`_walk_chains` lists the chains over ``simplex`` from,
    built by :func:`_chain_tables`."""

    simplex: FinSimplex
    bottom: tuple[EllObject, ...]  # the level-0 objects that start a chain
    # per level, by coloring: the (target, arrow) pairs that reach the top
    levels: list[dict[tuple[str, ...], list[tuple[EllObject, EllMorphism]]]]
    total: int  # how many chains the walk lists


def _live_colorings(
    colors: Sequence[str], width: int, slots: list[tuple[list[int], list[tuple[str, ...]]]]
) -> list[tuple[str, ...]]:
    """The colorings of ``width`` positions by ``colors`` whose colors at
    each slot's positions (disjoint lists) are one of the slot's keys, in
    ``product(colors, repeat=width)`` order; a position in no slot takes
    any color.  Built from the slots' keys, so no other coloring is met."""
    placed = [j for fib, _ in slots for j in fib]
    free = sorted(set(range(width)).difference(placed))
    slots = slots + [(free, list(product(colors, repeat=len(free))))]
    place = _gather(sorted(range(width), key=[*placed, *free].__getitem__))
    rank = {c: r for r, c in enumerate(colors)}
    rows = [place(tuple(chain.from_iterable(combo))) for combo in product(*[keys for _, keys in slots])]
    return sorted(rows, key=lambda row: [rank[c] for c in row])


def _chain_tables(p: FiniteOperad, a: FinSimplex, cap: int | None = None) -> _ChainTables:
    """The tables :func:`enumerate_chains` walks: the arrows out of each
    coloring of a level, built once, level by level: each target's choices
    once per fiber colors, each target object once, looked up by its colors
    before it is built.  Level 0 lists its live colorings only, those with
    an arrow out (each target's fiber colors accepted by an operation, an
    empty fiber's by a nullary one; dying elements take any color), read
    from each target's live fiber colors; a diagram of one level lists
    every coloring.  Counting the chains from each coloring, top level
    down, keeps only the arrows that reach the top level, and a ``cap``
    below the total raises :class:`TreeError` before any chain is built."""
    xs, als = a.pointed_levels
    cols = p.colors()

    def choices(key: tuple[str, ...], k: Elem, seen: dict) -> list:
        opts = seen.get(key)
        if opts is None:
            opts = seen[key] = [(c, (k, lab)) for c, lab in p.ops_for_inputs(list(key))]
        return opts

    # per level and target: its fiber's positions, and its choices by fiber colors
    targets = [[(slot, k, {}) for k, slot in zip(gamma.dst.elements, gamma.slots)] for gamma in als]
    width = len(xs[0].elements)
    if als:
        live = [(fib, [key for key in product(cols, repeat=len(fib)) if choices(key, k, seen)])
                for fib, k, seen in targets[0]]
        colorings = _live_colorings(cols, width, live)
    else:
        colorings = product(cols, repeat=width)
    objs = {c: _ell_obj((xs[0], c)) for c in colorings}
    bottom = list(objs.values())
    out: list[dict[tuple[str, ...], list[tuple[EllObject, EllMorphism]]]] = []  # per level, by coloring
    for gamma, level_targets in zip(als, targets):
        above: dict[tuple[str, ...], EllObject] = {}
        level = {}
        for colors, obj in objs.items():
            arrows = level[colors] = []
            per_target = []
            for fib, k, seen in level_targets:
                opts = choices(tuple([colors[j] for j in fib]), k, seen)
                if not opts:
                    break
                per_target.append(opts)
            else:
                for combo in product(*per_target):
                    dst_colors, comps = zip(*combo) if combo else ((), ())
                    dst = above.get(dst_colors)
                    if dst is None:
                        dst = above[dst_colors] = _ell_obj((gamma.dst, dst_colors))
                    arrows.append((dst, _ell_mor((gamma, obj, dst, comps))))
        out.append(level)
        objs = above
    count = dict.fromkeys(objs, 1)  # chains from each coloring of the level
    for level in reversed(out):
        below, count = count, {}
        for colors, arrows in level.items():
            arrows[:] = [(dst, mor) for dst, mor in arrows if below[dst.colors]]
            count[colors] = sum(below[dst.colors] for dst, _ in arrows)
    total = sum(count.values())
    if cap is not None and total > cap:
        raise TreeError(f"chain enumeration would produce {total} > cap {cap}")
    return _ChainTables(a, tuple(obj for obj in bottom if count[obj.colors]), out, total)


def _walk_chains(tables: _ChainTables) -> Iterator[tuple[Chain, ForestInto]]:
    """The chains of ``tables``, depth first in ``product`` order, each with
    its image under :func:`chain_to_map`, built when it is reached: each
    stack node carries its prefix's objects and arrows with their color and
    component pairs, an object's from :func:`_object_pairs` and an arrow's
    from :func:`_level_pairs` when the node is pushed."""
    a, bottom, levels, _ = tables
    names, top = a.edge_names, len(levels)
    image = ForestInto.build if top > 9 else lambda colors, comps: _forest_into((colors, comps))
    stack = [((obj,), (), _object_pairs(a, 0, obj.colors), ()) for obj in reversed(bottom)]
    while stack:
        objects, arrows, colors, comps = stack.pop()
        i = len(arrows)
        if i == top:
            yield _chain((a, objects, arrows)), image(colors, comps)
            continue
        j = i + 1
        stack += [
            (objects + (dst,), arrows + (mor,), colors + _object_pairs(a, j, dst.colors),
             comps + _level_pairs(names[j], j, mor.components))
            for dst, mor in reversed(levels[i][objects[-1].colors])
        ]


def enumerate_chains(
    p: FiniteOperad, a: FinSimplex, cap: int | None = None
) -> tuple[Chain, ...]:
    """All chains over the level diagram: a coloring of the bottom level,
    then one operation per element of each next level at its fiber colors
    (dying elements impose nothing; empty fibers take nullary operations).

    The chains are counted from :func:`_chain_tables` before any is built,
    so a ``cap`` below the total raises :class:`TreeError` at once; they are
    then listed by :func:`_walk_chains`, depth first in ``product`` order,
    through the targets that reach the top level only."""
    return tuple(ch for ch, _ in _walk_chains(_chain_tables(p, a, cap)))


def _level_pairs(level: dict[str, str], i: int, items: Iterable[tuple[Elem, Any]]) -> tuple:
    """One level's ``(edge, value)`` pairs in edge order: each element names
    the table's edge, or ``ℓi:x`` afresh when it is off the table."""
    return tuple(sorted({level.get(x) or edge_name(i, str(x)): v for x, v in items}.items()))


def _object_pairs(a: FinSimplex, i: int, colors: tuple[str, ...]) -> tuple:
    """The ``(edge, color)`` pairs, in edge order, of a coloring of level
    ``i`` of ``a``: built once per diagram and coloring, and kept in the
    simplex's ``_map_pairs``."""
    seen = a._map_pairs[i]
    pairs = seen.get(colors)
    if pairs is None:  # the level's edge names, in its own order
        pairs = seen[colors] = tuple(sorted(zip(a.edge_names[i].values(), colors)))
    return pairs


def chain_to_map(ch: Chain) -> ForestInto:
    """Read a chain as a map out of the free operad of the diagram's forest:
    the level-``i`` element ``a`` colors edge ``ℓi:a``, the arrow component
    at ``a`` is the operation at vertex ``ℓi:a``.  Edge names are read from
    the simplex's table; an element off the simplex's levels is named
    afresh.

    An object over the level's own set is read once per diagram and
    coloring (:func:`_object_pairs`).  An arrow's pairs are built on every
    reading, since most arrows are read once."""
    a = ch.simplex
    names, levels = a.edge_names, a.levels
    colors, comps = [], []
    for i, (base, cs) in enumerate(ch.objects):
        if i < len(levels) and base.elements == levels[i]:
            colors += _object_pairs(a, i, cs)
        else:
            colors += _level_pairs(names[i] if i < len(names) else {}, i, zip(base.elements, cs))
    for i, mor in enumerate(ch.arrows, start=1):
        comps += _level_pairs(names[i] if i < len(names) else {}, i, mor.components)
    if len(ch.objects) > 10 or len(ch.arrows) > 9:  # "ℓ10:" sorts before "ℓ2:"
        return ForestInto.build(colors, comps)
    return _forest_into((tuple(colors), tuple(comps)))


def map_to_chain(p: FiniteOperad, a: FinSimplex, m: ForestInto) -> Chain:
    """Inverse of :func:`chain_to_map` over the same diagram."""
    xs, als = a.pointed_levels
    names = a.edge_names
    objs = [
        _ell_obj((xs[i], tuple([m.color[names[i][x]] for x in xs[i].elements])))
        for i in range(a.n + 1)
    ]
    arrows = [
        _ell_mor((als[i], objs[i], objs[i + 1],
                  tuple([(k, m.component[names[i + 1][k]]) for k in xs[i + 1].elements])))
        for i in range(a.n)
    ]
    return _chain((a, tuple(objs), tuple(arrows)))


def restrict_chain(p: FiniteOperad, ch: Chain, phi) -> Chain:
    """Reindex a chain along a monotone operator by composing its arrows
    (an empty segment contributes the identity)."""
    b = restrict_simplex(ch.simplex, phi)
    objs = [ch.objects[phi(j)] for j in range(phi.dom + 1)]
    arrows = []
    for j in range(1, phi.dom + 1):
        lo, hi = phi(j - 1), phi(j)
        if lo == hi:
            arrows.append(ell_identity(p, objs[j - 1]))
        else:
            acc = ch.arrows[lo]
            for t in range(lo + 1, hi):
                acc = ell_compose(p, ch.arrows[t], acc)
            arrows.append(acc)
    return _chain((b, tuple(objs), tuple(arrows)))


# ---------------------------------------------------------------------------
# free algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeTerm:
    """A term of a free algebra: a sorted multiset of generator indices, an
    operation accepting their colors, and one argument per index."""

    indices: tuple[str, ...]
    label: Label
    args: tuple[str, ...]


def _weights(generators: Mapping[str, str], inputs: Mapping[str, Sequence[str]]) -> dict[str, int]:
    """Per color, the distinct arguments of its generators, summed: how many
    free-algebra terms an identity at that color has."""
    weights: dict[str, int] = {}
    for idx, color in generators.items():
        weights[color] = weights.get(color, 0) + len(set(inputs.get(idx, ())))
    return weights


def _term_counts(p: _CutOperad, weights: Mapping[str, int], output: str) -> dict[str, int]:
    """Per color weakly above ``output`` in ``p``'s state table, its count
    ``W`` (:func:`~dendrotensor.omegacat._counts`): its weight plus, per
    move, the product of ``W`` over the colors the move reaches.  In a free
    forest operad, where a color has at most one move, ``W(output)`` is the
    number of free-algebra terms at ``output``; where a color has two moves,
    which may meet a cut twice, it bounds that number."""
    if output not in p._states:
        p._unknown(output)  # a free forest operad refuses an unknown edge
        return {output: 0}
    return _counts(_rows_above(p._states.__getitem__, output), lambda d, moves: weights.get(d, 0))


def _free_algebra_count(
    p: _CutOperad, generators: Mapping[str, str], inputs: Mapping[str, Sequence[str]], output: str
) -> int:
    """How many terms :func:`free_algebra` lists at ``output`` over a free
    forest operad (a bound over another cut operad), counted without
    listing a cut."""
    return _term_counts(p, _weights(generators, inputs), output)[output]


def _live_cuts(
    p: _CutOperad, weights: Mapping[str, int], output: str
) -> list[tuple[tuple[str, ...], tuple[Label, ...]]]:
    """The ``(inputs, operations)`` entries at ``output`` of the cuts whose
    inputs all have a positive weight, the only cuts with free-algebra
    terms: :func:`_fold` over the moves whose colors all count above 0,
    each color its own cut when its weight is positive.  A move reaching a
    color of count 0 has no live union, so the colors only such moves reach
    are not folded."""
    counts = _term_counts(p, weights, output)
    if not counts[output]:
        return []
    live: dict[str, list[tuple[str, ...]]] = {}
    rows = _rows_above(lambda d: [move for move in p._states[d] if all(counts[c] for c in move)], output)
    _fold(rows, live, own={d for d, w in weights.items() if w})
    return [(cut, (_operation(output, cut),)) for cut in live[output]]


def free_algebra(
    p: FiniteOperad,
    generators: Mapping[str, str],
    inputs: Mapping[str, Sequence[str]],
    output: str,
) -> tuple[FreeTerm, ...]:
    """The set of free-algebra terms at ``output``: one orbit of
    ``(operation, arguments)`` for each multiset of generator indices whose
    colors the operation accepts, with one argument drawn per index.  An
    orbit is listed once, its arguments a sorted multiset per block of
    equal indices (the symmetric action of the realizations is trivial).

    Over a cut operad only the cuts whose inputs all take an argument are
    read (:func:`_live_cuts`); another operad lists every operation at
    ``output``."""
    def multisets(pool: Iterable[str], k: int) -> Iterator[tuple[str, ...]]:
        return combinations_with_replacement(sorted(set(pool)), k)

    by_color: dict[str, list[str]] = {}
    for idx in sorted(generators):
        by_color.setdefault(generators[idx], []).append(idx)
    if isinstance(p, _CutOperad):
        entries = _live_cuts(p, _weights(generators, inputs), output)
    else:
        entries = p.ops_by_output(output)
    terms: list[FreeTerm] = []
    for kappa, labels in entries:
        colors = sorted(Counter(kappa).items())
        for chosen in product(*[multisets(by_color.get(c, ()), k) for c, k in colors]):
            gamma = tuple(sorted(i for grp in chosen for i in grp))
            for parts in product(*[multisets(inputs.get(i, ()), k) for i, k in Counter(gamma).items()]):
                args = tuple([a for part in parts for a in part])
                terms += [FreeTerm(gamma, lab, args) for lab in labels]
    return tuple(sorted(terms, key=lambda t: (t.indices, str(t.label), t.args)))
