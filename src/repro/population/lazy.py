"""A handle on a world that is generated only when a stage needs it.

Stage cache keys name a world by its seed and spec, which
:func:`~repro.population.spec.population_spec` derives without building
anything.  This module imports no generator code, so a run whose every
world-reading stage is a store hit never loads the simulator.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.population.spec import population_spec

if TYPE_CHECKING:
    from repro.population.generator import GeneratedPopulation


class LazyPopulation:
    """A world named by its seed and spec, generated on first :meth:`get`.

    Stage cache keys need only :meth:`identity`, so a run whose every
    world-reading stage is a store hit never generates the world.  The
    pipeline hands its handle to table2 and harvest, so a run that does
    need the world generates it once.
    """

    def __init__(
        self,
        seed: int = 0,
        scale: float = 1.0,
        population: Optional[GeneratedPopulation] = None,
    ) -> None:
        self.seed = population.seed if population is not None else seed
        self.spec = population.spec if population is not None else population_spec(scale)
        self._scale = scale
        self._population = population

    @classmethod
    def wrap(
        cls,
        population: Union[GeneratedPopulation, "LazyPopulation", None],
        seed: int,
        scale: float,
    ) -> "LazyPopulation":
        """A handle as is, a built world wrapped, or a new ``(seed, scale)`` world."""
        if isinstance(population, LazyPopulation):
            return population
        return cls(seed=seed, scale=scale, population=population)

    def identity(self) -> Dict[str, Any]:
        """The ``{"seed", "spec"}`` block naming this world in stage keys."""
        return {"seed": self.seed, "spec": asdict(self.spec)}

    def get(self) -> GeneratedPopulation:
        """The world, generated on the first call."""
        if self._population is None:
            from repro.population.generator import generate_population

            self._population = generate_population(seed=self.seed, scale=self._scale)
        return self._population
