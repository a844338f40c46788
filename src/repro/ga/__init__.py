"""A compact integer-vector evolutionary-computation library.

Stands in for ECJ [Luke, 2004], which the paper uses: steady
generational GA over integer genomes with configurable selection,
crossover, mutation, elitism, fitness caching, checkpointing and
generation-batched evaluation.  The library is generic — nothing in this
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
from repro.ga.checkpoint import save_checkpoint, load_checkpoint

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
    "save_checkpoint",
    "load_checkpoint",
]
