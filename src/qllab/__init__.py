"""qllab: quantum-like state spaces from classical graph topologies.

Importing the package loads no module; callers import the one they use:

- `qllab.graph`: biased graphs on edge arrays, their generators and
  mutations, and the projection onto unit block indicators.
- `qllab.qlbit`: QL bits, two coupled regular blocks, and their
  connection policies and Bloch-row bias topologies.
- `qllab.qlproduct`: full and contracted Cartesian products of QL bits,
  the basis order, and the composition and contraction laws.
- `qllab.spectral`: eigensolvers, the block quotient and its QL states,
  the emergent-state rule and the phase rule of every reported state.
- `qllab.kuramoto`: Kuramoto phase dynamics on a product.
- `qllab.witness`: witness bits that read a product bit's phase.
- `qllab.cheeger`: exact isoperimetric constants and Cheeger bounds.
- `qllab.states`: the purity of a state ensemble, a two-bit concurrence.
- `qllab.errors`: the exception types.
- `qllab.cli`: the `qllab` command, which runs each reading as a named
  experiment over a JSON config.
"""

__version__ = "0.1.0"
