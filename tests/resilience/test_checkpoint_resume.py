"""Resume by recall: an interrupted GA run, run again on its store,
is bitwise identical to the uninterrupted run and re-simulates nothing
the store recorded.

The engine keeps no state on disk but the store: the RNG stream makes
the re-run replay the identical evolution, and the store answers every
genome the interrupted run recorded durably.
"""

import pytest

from repro.ga.engine import GAConfig, GAEngine
from repro.ga.individual import IntVectorSpace
from repro.perf.storetier import StoreTier, TierStore

SPACE = IntVectorSpace(lows=(0, 0, 0), highs=(20, 20, 20))
CONFIG = GAConfig(population_size=8, generations=6, seed=3)


def _fitness(genome):
    return float(sum((g - 7) ** 2 for g in genome))


class _Abort(Exception):
    """Simulated hard abort mid-run."""


class TestEngineResume:
    def _interrupted(self, path, fitness_fn, abort_after_gen):
        """Run on the store at *path*, abort after generation
        *abort_after_gen*; return the genomes the store recorded."""

        def abort_hook(stats):
            if stats.generation > abort_after_gen:
                raise _Abort()

        with TierStore(path) as store:
            with pytest.raises(_Abort):
                GAEngine(SPACE, CONFIG, store=store).run(
                    fitness_fn, on_generation=abort_hook
                )
        entries, _, _ = StoreTier(path).load_context("default")
        return set(entries)

    def _resumed(self, path, fitness_fn):
        with TierStore(path) as store:
            return GAEngine(SPACE, CONFIG, store=store).run(fitness_fn)

    def test_resume_is_bitwise_identical_to_uninterrupted(self, tmp_path):
        full = GAEngine(SPACE, CONFIG).run(_fitness)
        path = str(tmp_path / "evals.tier")
        recorded = self._interrupted(path, _fitness, abort_after_gen=2)
        resumed = self._resumed(path, _fitness)

        assert resumed.best_genome == full.best_genome
        assert resumed.best_fitness == full.best_fitness
        assert resumed.generations_run == full.generations_run
        # the re-run replays the exact same evolution
        tail = full.history[-len(resumed.history):]
        for a, b in zip(tail, resumed.history):
            assert (a.generation, a.best_fitness, a.best_genome) == (
                b.generation, b.best_fitness, b.best_genome
            )
        # and simulates only what the interrupted run did not record
        assert recorded
        assert resumed.evaluations == full.evaluations - len(recorded)

    def test_resume_skips_already_paid_genomes(self, tmp_path):
        calls = []

        def counting_fitness(genome):
            calls.append(tuple(genome))
            return _fitness(genome)

        path = str(tmp_path / "evals.tier")
        recorded = self._interrupted(path, counting_fitness, abort_after_gen=2)
        calls.clear()

        assert recorded  # the interrupted run did pay for genomes
        self._resumed(path, counting_fitness)
        # the store answers every genome the interrupted run recorded
        assert not (set(calls) & recorded)
