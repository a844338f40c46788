"""A compact integer-vector evolutionary-computation library.

Stands in for ECJ [Luke, 2004], which the paper uses: steady
generational GA over integer genomes with configurable selection,
crossover, mutation, elitism, fitness caching and generation-batched
evaluation.  ECJ's checkpoints have no counterpart: a run resumes by
running again on its persistent evaluation store, which recalls every
genome it recorded.  The library is generic — nothing in this
package knows about inlining — and is exercised independently by its own
test suite.
"""

from repro.ga.individual import IntVectorSpace, Individual
from repro.ga.selection import (
    SelectionOperator,
    TournamentSelection,
    RouletteSelection,
    RankSelection,
)
from repro.ga.crossover import (
    CrossoverOperator,
    OnePointCrossover,
    TwoPointCrossover,
    UniformCrossover,
)
from repro.ga.mutation import MutationOperator, RandomResetMutation, CreepMutation
from repro.ga.fitness import FitnessCache
from repro.ga.statistics import GenerationStats
from repro.ga.engine import GAConfig, GAEngine, GAResult
from repro.ga.operators_extra import (
    StochasticUniversalSampling,
    ArithmeticCrossover,
    BoundaryMutation,
)
from repro.ga.parallel import SerialEvaluator, BatchEvaluator

__all__ = [
    "IntVectorSpace",
    "Individual",
    "SelectionOperator",
    "TournamentSelection",
    "RouletteSelection",
    "RankSelection",
    "CrossoverOperator",
    "OnePointCrossover",
    "TwoPointCrossover",
    "UniformCrossover",
    "MutationOperator",
    "RandomResetMutation",
    "CreepMutation",
    "FitnessCache",
    "GenerationStats",
    "GAConfig",
    "GAEngine",
    "GAResult",
    "StochasticUniversalSampling",
    "ArithmeticCrossover",
    "BoundaryMutation",
    "SerialEvaluator",
    "BatchEvaluator",
]
