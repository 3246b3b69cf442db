"""Evolution loop: chromosomes are kernel expressions, fitness is SVM accuracy.

The population is evolved by tournament selection, one-child subtree crossover
and mutation under a depth cap, with elitism and generational replacement.
Fitness of a chromosome is the validation accuracy of a 1-vs-1 SVM trained on
the kernel the chromosome evaluates to (cross-validation modes optional); every
mode is a list of (fit, held) pairs of item ids, validation the single pair
(train, validation).  ``SplitFitness`` is the one memo of fitness on a split, and
``score_all`` scores a list through it: ``evolve`` once per generation, the
harness's best-leaf and C selection once each.  Per mode, it gathers once from
the bank the blocks fitness reads, each fold's class-pair train x train and held
x train blocks, so ``fitness`` folds a chromosome once over them, cuts nothing
and hands each pair's views to ``svm``'s pair core.  Per-chromosome RNG streams
are derived from (seed, generation, slot), the seed an argument of ``evolve``.  The
search never sees the test set: retraining the winner on train+validation and
scoring it on test is ``harness.fit_expr``; the harness writes the files, gp none.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError, ExprSyntaxError, NumericalError, ParameterError, ShapeError
from .expr import (
    Add,
    KernelExpr,
    MAX_PARSE_DEPTH,
    Leaf,
    Mul,
    canonical_string,
    _folded,
    depth,
    iter_nodes,
    node_count,
    parse_expr,
    replace_at,
    subtree_at,
)
from .gram import KernelBank, _checked_ids, submatrix
from .rng import derive_seed, derived_rng
from .svm import SvmParams, _class_pairs, _fit_pairs, _voted, accuracy

log = logging.getLogger(__name__)
FITNESS_MODES = ("validation", "k_fold", "leave_one_out")
IMPROVEMENT_TOL = 1e-6


@dataclass(frozen=True)
class GpParams:
    population_size: int = 50
    max_generations: int = 30
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    tournament_size: int = 3
    max_depth: int = 6
    init_depth_range: tuple[int, int] = (2, 4)
    stagnation_limit: int = 5
    elitism: int = 1
    fitness_mode: str = "validation"
    n_folds: int = 5
    seed_leaves: bool = True
    initial_exprs: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "init_depth_range", tuple(self.init_depth_range))
        object.__setattr__(self, "initial_exprs", tuple(self.initial_exprs))
        if self.population_size < 1:
            raise ParameterError("population_size must be >= 1")
        if self.max_generations < 0:
            raise ParameterError("max_generations must be >= 0")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {rate}")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ParameterError("tournament_size must lie in [1, population_size]")
        if not 0 <= self.elitism < self.population_size:
            raise ParameterError("elitism must lie in [0, population_size)")
        if self.max_depth > MAX_PARSE_DEPTH:  # every tree the search writes parses back
            raise ParameterError(f"max_depth may not exceed {MAX_PARSE_DEPTH}, the deepest tree parse_expr reads")
        lo, hi = self.init_depth_range
        if not (1 <= lo <= hi):
            raise ParameterError(f"invalid init_depth_range {self.init_depth_range}")
        if hi > self.max_depth:
            raise ParameterError("init_depth_range may not exceed max_depth")
        if self.stagnation_limit < 1:
            raise ParameterError("stagnation_limit must be >= 1")
        if self.fitness_mode not in FITNESS_MODES:
            raise ParameterError(f"fitness_mode must be one of {FITNESS_MODES}")
        if self.fitness_mode == "k_fold" and self.n_folds < 2:
            raise ParameterError("k_fold mode needs n_folds >= 2")
        for text in self.initial_exprs:  # leaf indices meet the bank in _initial_population
            try:
                tree = parse_expr(text)
            except ExprSyntaxError as exc:
                raise ParameterError(f"initial_exprs entry {text!r}: {exc}") from exc
            if depth(tree) > self.max_depth:
                raise ParameterError(f"initial_exprs entry {text!r} deeper than max_depth {self.max_depth}")


@dataclass
class EvolutionResult:
    best_expr: KernelExpr
    best_fitness: float
    per_generation: list[tuple[int, float, float]]  # (generation, best, mean)
    generation_best_exprs: list[str] = field(default_factory=list)


def _grow(n: int, target: int, full: bool, rng: np.random.Generator, d: int) -> KernelExpr:
    if d == target:
        return Leaf(int(rng.integers(0, n)))
    if not full and rng.random() < 0.5:
        return Leaf(int(rng.integers(0, n)))
    op = Add if rng.integers(0, 2) == 0 else Mul
    return op(_grow(n, target, full, rng, d + 1), _grow(n, target, full, rng, d + 1))


def _random_tree(n: int, lo: int, hi: int, rng: np.random.Generator) -> KernelExpr:
    """Ramped half-and-half tree over kernels 0..n-1 with depth in [lo, hi]."""
    target = int(rng.integers(lo, hi + 1))
    full = bool(rng.integers(0, 2))
    # the grow method can undershoot the minimum depth; resample, then force full
    for _ in range(64):
        tree = _grow(n, target, full, rng, 1)
        if depth(tree) >= lo:
            return tree
        full = False
    return _grow(n, target, True, rng, 1)


def crossover(a: KernelExpr, b: KernelExpr, rng: np.random.Generator, max_depth: int) -> KernelExpr:
    """Parent a with one uniformly chosen subtree replaced by one of parent b.

    Both positions are drawn from rng, a's first.  A child that would exceed
    max_depth is replaced by a unmodified, so the output is always depth-legal.
    """
    pos_a = int(rng.integers(0, node_count(a)))
    pos_b = int(rng.integers(0, node_count(b)))
    child = replace_at(a, pos_a, subtree_at(b, pos_b))
    return a if depth(child) > max_depth else child


def mutate(expr: KernelExpr, rng: np.random.Generator, params: GpParams, n: int) -> KernelExpr:
    """One of three equally likely edits: re-point a leaf, swap an operator,
    or replace a subtree with a fresh random tree inside the depth budget."""
    branch = int(rng.integers(0, 3))
    nodes = iter_nodes(expr)
    if branch == 0:
        leaf_pos = [i for i, (node, _) in enumerate(nodes) if isinstance(node, Leaf)]
        pos = leaf_pos[int(rng.integers(0, len(leaf_pos)))]
        if n == 1:
            return expr
        others = [i for i in range(n) if i != nodes[pos][0].index]
        return replace_at(expr, pos, Leaf(others[int(rng.integers(0, len(others)))]))
    if branch == 1:
        op_pos = [i for i, (node, _) in enumerate(nodes) if not isinstance(node, Leaf)]
        if not op_pos:
            return expr
        pos = op_pos[int(rng.integers(0, len(op_pos)))]
        node = nodes[pos][0]
        swapped = Mul(node.left, node.right) if isinstance(node, Add) else Add(node.left, node.right)
        return replace_at(expr, pos, swapped)
    pos = int(rng.integers(0, len(nodes)))
    budget = params.max_depth - nodes[pos][1] + 1
    return replace_at(expr, pos, _random_tree(n, 1, max(1, budget), rng))


def _fitter_first(fits, sizes):
    """Ranking key over slots: higher fitness, then the smaller tree, then the lower slot."""
    return lambda i: (-fits[i], sizes[i], i)


def tournament_select(fitnesses, k: int, rng: np.random.Generator, node_counts=None) -> int:
    """Index of the fittest of k sampled candidates.

    Candidates are drawn with replacement, except that k equal to the
    population size inspects every individual once.  Fitness ties go to the
    smaller tree, then the lower index.
    """
    n = len(fitnesses)
    if n == 0:
        raise ParameterError("cannot select from an empty population")
    if not 1 <= k <= n:
        raise ParameterError(f"tournament size {k} must lie in [1, {n}]")
    sizes = node_counts if node_counts is not None else [1] * n
    pool = range(n) if k == n else rng.integers(0, n, size=k)
    return int(min(pool, key=_fitter_first(fitnesses, sizes)))


def _folds(mode: str, train: np.ndarray, val: np.ndarray, n_folds: int, seed: int) -> list:
    """The (fit, held) item-id pairs a fitness mode scores; a fold's draw depends only on train's size."""
    if mode == "validation":
        return [(train, val)]
    if mode == "leave_one_out":
        held = [np.array([pos]) for pos in range(train.size)]
    elif mode == "k_fold":
        if n_folds > train.size:
            raise ParameterError(f"{n_folds} folds for {train.size} training points")
        held = np.array_split(derived_rng(seed, "folds").permutation(train.size), n_folds)
    else:
        raise ParameterError(f"unknown fitness mode {mode!r}")
    return [(np.delete(train, fold), train[fold]) for fold in held]


def fitness(
    expr: KernelExpr, score: SplitFitness, svm_params: SvmParams, mode: str = "validation", n_folds: int = 5
) -> float:
    """Accuracy of an SVM using the chromosome's kernel (higher is better): validation trains on the
    split's training items and scores its validation items; leave_one_out / k_fold cross-validate over
    the training items.  The expression is folded once over score's plan, the entries fitness reads;
    an overflow there raises DataError.  SVM failures (non-convergence, degenerate folds, nothing held
    out) score 0 with a warning instead of raising, so evolution keeps moving, and count in
    ``score.failed``, since Python's default filter drops a repeated warning."""
    tag = canonical_string(expr)
    buffers, folds, held_labels = score._plan(mode, n_folds)
    flat, seed = _folded(expr, buffers, tag), derive_seed(score.split.seed, tag)
    try:
        if not folds:
            raise ShapeError("no training points to leave out")
        preds = []
        for classes, pairs, n_held in folds:
            views = [flat[s:e].reshape(-1, pos.size) for _, pos, _, s, e in pairs]  # (p + h) x p, split at row p
            blocks = [(pair, pos, y, v[: pos.size]) for (pair, pos, y, _, _), v in zip(pairs, views)]
            held = [v[pos.size :] for (_, pos, *_), v in zip(pairs, views)]
            preds.append(_voted(_fit_pairs(classes, blocks, svm_params, seed), held, n_held, tag)[0])
        return accuracy(np.concatenate(preds), held_labels)
    except (DataError, NumericalError) as exc:
        score.failed += 1
        warnings.warn(f"fitness of {tag} set to 0: {exc}", stacklevel=2)
        return 0.0


def _key(mode: str, n_folds: int) -> tuple:
    """The part of a fitness key the mode reads: n_folds in k_fold mode only."""
    return (mode, n_folds) if mode == "k_fold" else (mode,)


class SplitFitness:
    """``fitness`` on one split, memoised by (canonical expression, SVM params, mode, and n_folds in k_fold
    mode only, the one mode that reads it).  Commutative reorderings share a canonical string, and so the
    fitness seed, so sharing their entry changes no result.  The split's ids are checked against the bank
    (IndexError) and ``fit_labels`` read when it is built; each mode's ``_plan`` and ``final_rows`` (each base
    kernel's (fit, then test) x fit rows, which ``harness.fit_expr`` folds over) are gathered from ``bank`` on
    first use, all read-only, as a fold writes only into arrays it made.  Labels must match the bank, one per
    item, or ShapeError (``kernel_io.load_bank`` checks a bank read from files first)."""

    def __init__(self, bank: KernelBank, labels, split):
        self.bank, self.labels, self.split = bank, np.asarray(labels), split
        if len(self.labels) != bank.size:
            raise ShapeError(f"{len(self.labels)} labels for a bank of {bank.size} items")
        train, val, test = (_checked_ids(idx, bank.size, name) for idx, name in
                            ((split.train_idx, "train"), (split.val_idx, "validation"), (split.test_idx, "test")))
        self._rows = np.concatenate([train, val, test])  # fit (train, then validation), then test
        self.fit_labels = self.labels[self._rows[: train.size + val.size]]
        self._memo: dict[tuple, float] = {}
        self._plans: dict[tuple, tuple] = {}
        # evaluations fitness scored 0 for a failure, and the last score_all call's (evaluated, memo hits, failed)
        self.failed, self.counts = 0, (0, 0, 0)

    @cached_property
    def final_rows(self) -> tuple[np.ndarray, ...]:
        blocks = tuple(submatrix(k, self._rows, self._rows[: self.fit_labels.size]) for k in self.bank.kernels)
        for block in blocks:
            block.flags.writeable = False
        return blocks

    def _plan(self, mode: str, n_folds: int) -> tuple:
        """(buffers, folds, held labels) of mode (and of n_folds in k_fold mode), on first use.  Per fold and class
        pair, each base kernel's flat read-only buffer holds one (p + h) x p gather from the bank: rows the pair's p
        training items, then the fold's h held items, columns the p.  The buffers are rows of one array, each gather
        in its [start:end] slice.  A fold is (classes, [(pair, pos, labels, start, end)], h)."""
        key = _key(mode, n_folds)
        if key not in self._plans:
            train, val = np.split(self._rows[: self.fit_labels.size], [len(self.split.train_idx)])
            folds = _folds(mode, train, val, n_folds, self.split.seed)
            cuts, layout, end = [], [], 0
            for fit, held in folds:
                classes, pairs = _class_pairs(self.labels[fit])
                for i, (pair, pos, y) in enumerate(pairs):
                    cols, at = fit[pos], end
                    end += cols.size * (cols.size + held.size)
                    cuts.append((np.ix_(np.concatenate([cols, held]), cols), at, end))
                    pairs[i] = (pair, pos, y, at, end)
                layout.append((classes, pairs, held.size))
            buffers = np.empty((len(self.bank), end))  # row i: base kernel i's buffer, each gather in its slice
            for row, k in zip(buffers, self.bank.kernels):
                for block, at, stop in cuts:
                    row[at:stop] = k.values[block].ravel()
            buffers.flags.writeable = False
            held = self.labels[np.concatenate([h for _, h in folds] or [np.empty(0, dtype=int)])]
            self._plans[key] = (buffers, layout, held)
        return self._plans[key]

    def score_all(self, exprs, svm_params, mode: str = "validation", n_folds: int = 5) -> list[float]:
        """Each expression's fitness: memo hits as they are, misses scored in first-seen order, each key
        once, and ``counts`` set.  svm_params is one SvmParams for all, or a list, one per expression."""
        params = svm_params if isinstance(svm_params, list) else [svm_params] * len(exprs)
        keys = [(canonical_string(e), c, *_key(mode, n_folds)) for e, c in zip(exprs, params)]
        evaluated, failed = 0, self.failed
        for expr, key in zip(exprs, keys):
            if key not in self._memo:  # by global name, so a wrapper bound to gp.fitness sees every evaluation
                self._memo[key] = fitness(expr, self, key[1], mode, n_folds)
                evaluated += 1
        self.counts = (evaluated, len(keys) - evaluated, self.failed - failed)
        return [self._memo[key] for key in keys]


def _initial_population(params: GpParams, n: int, seed: int) -> list[KernelExpr]:
    population: list[KernelExpr] = []
    if params.seed_leaves:
        population.extend(Leaf(i) for i in range(n))
    for text in params.initial_exprs:
        tree = parse_expr(text)
        bad = [node.index for node, _ in iter_nodes(tree) if isinstance(node, Leaf) and node.index >= n]
        if bad:
            raise ParameterError(f"seed expression {text!r} references kernel K{bad[0] + 1}; bank has {n}")
        population.append(tree)
    while len(population) < params.population_size:
        rng = derived_rng(seed, "init", len(population))
        population.append(_random_tree(n, *params.init_depth_range, rng))
    return population[: params.population_size]


def evolve(score: SplitFitness, params: GpParams, svm_params: SvmParams, seed: int = 0) -> EvolutionResult:
    """Run the generational loop on score's split; return the fittest chromosome found.

    The initial trees and every child draw their streams from ``seed``
    (``run_repeat`` passes repeat r's GP seed).  Every generation, the initial
    one included, is scored once and ranked fitter-first: its head is the
    generation's best and its first ``elitism`` slots pass to the next
    generation unchanged, so with elitism the best fitness never decreases.
    Variation starts at generation 1.  The loop stops at max_generations, or
    earlier once the best fitness has not improved by more than 1e-6 for
    stagnation_limit generations.  Only the training and validation points
    are used; split.test_idx is never read.
    The split and the fitness mode's folds are checked before any fitness work.
    """
    labels, split = score.labels, score.split
    n = len(score.bank)
    if len(set(labels[list(split.train_idx)].tolist())) < 2:
        raise DataError("split.train_idx must cover at least 2 classes")
    if params.fitness_mode == "validation" and len(set(labels[list(split.val_idx)].tolist())) < 2:
        raise DataError("split.val_idx must cover at least 2 classes")
    # the fold rule rejects too many folds here, before any fitness work
    _folds(params.fitness_mode, np.arange(len(split.train_idx)), None, params.n_folds, split.seed)

    mode, folds = params.fitness_mode, params.n_folds
    population = _initial_population(params, n, seed)
    best_expr, best_fit, stagnant = None, -np.inf, 0
    history, best_strings = [], []
    for gen in range(params.max_generations + 1):
        if gen:
            next_pop = [population[i] for i in order[: params.elitism]]
            for slot in range(params.population_size - params.elitism):
                rng = derived_rng(seed, "gen", gen, slot)
                p1 = population[tournament_select(fits, params.tournament_size, rng, sizes)]
                p2 = population[tournament_select(fits, params.tournament_size, rng, sizes)]
                child = p1
                if rng.random() < params.crossover_rate:
                    child = crossover(p1, p2, rng, params.max_depth)
                if rng.random() < params.mutation_rate:
                    child = mutate(child, rng, params, n)
                next_pop.append(child)
            population = next_pop
        fits = score.score_all(population, svm_params, mode, folds)
        sizes = [node_count(e) for e in population]
        order = sorted(range(len(population)), key=_fitter_first(fits, sizes))
        top = order[0]
        history.append((gen, fits[top], float(np.mean(fits))))
        log.debug("generation %d: best %.4f, mean %.4f, %d evaluated, %d memo hits, %d failed, %d memo entries",
                  *history[-1], *score.counts, len(score._memo))
        best_strings.append(canonical_string(population[top]))
        stagnant = 0 if fits[top] > best_fit + IMPROVEMENT_TOL else stagnant + 1
        if fits[top] > best_fit or (fits[top] == best_fit and sizes[top] < node_count(best_expr)):
            best_expr, best_fit = population[top], fits[top]
        if stagnant >= params.stagnation_limit:
            break

    return EvolutionResult(
        best_expr=best_expr,
        best_fitness=best_fit,
        per_generation=history,
        generation_best_exprs=best_strings,
    )
