"""Classification engine for bialgebras and Hopf algebras over F2, n <= 4."""

__version__ = "0.1.0"

__all__ = [
    "AlgebraSC",
    "Bialgebra",
    "CoalgebraSC",
    "HopfAlgebra",
    "classify_dimension",
    "solve_coproducts",
]


def __getattr__(name):
    # Lazy re-exports keep `import f2hopf` cheap.
    if name in ("AlgebraSC", "CoalgebraSC", "Bialgebra", "HopfAlgebra"):
        from f2hopf import structure

        return getattr(structure, name)
    if name == "classify_dimension":
        from f2hopf.classify import classify_dimension

        return classify_dimension
    if name == "solve_coproducts":
        from f2hopf.coproducts import solve_coproducts

        return solve_coproducts
    raise AttributeError(name)
