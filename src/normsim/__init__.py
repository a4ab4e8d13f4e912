"""normsim: sanction games, normative agents, and orchard experiments.

The analysis layer (`games`, `sanctions`) detects cooperation dilemmas,
builds sanction-based payoff transforms, checks enforceability, and verifies
correlated-equilibrium advice. The simulation layer (`institutions`,
`orchard`, `agents`, `oracle`, `harness`) runs deterministic multi-agent
orchard episodes where a newcomer learns which institution the community
actually follows.

The package root re-exports nothing: import each name from the module that
defines it (`from normsim.games import load_game`), so that importing the
game layer does not load the village simulation.
"""

__version__ = "0.1.0"
