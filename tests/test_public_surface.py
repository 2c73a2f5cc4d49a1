"""Every public function and class of the layer modules (those with an
``__all__``) is used by some module of the package, or it is listed here."""

import ast
import pathlib

import enslab

SOURCE = pathlib.Path(enslab.__file__).parent

# public names that only tests reach. The first three state a paper claim
# (phase volume, energy conservation, refinement invariance) that no run
# reports yet; each of the last four has a private twin the runs use instead
# (the ensemble's lockstep, cli's inline mean, the hierarchy's global mean,
# the spin-echo workers' entropy kernel).
UNREACHED = {
    "conefall.hamiltonian",
    "conefall.liouville_check",
    "probcore.refine",
    "conefall.integrate",
    "probcore.mean_energy",
    "randomfield.one_point_prob",
    "spinecho.binned_phase_entropy",
}


def public_definitions(tree) -> set:
    """The functions and classes a module defines and lists in ``__all__``."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    defined = (node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    return {name for name in defined if name in exported}


def references(module: str, tree) -> set:
    """The ``module.name`` pairs a module's code uses: its own names, and the
    names it reads as attributes of a sibling or imports from one."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(f"{module}.{node.id}")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_every_public_name_is_used_by_the_package_or_listed():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    public = {f"{module}.{name}" for module, tree in trees.items() for name in public_definitions(tree)}
    used = set().union(*(references(module, tree) for module, tree in trees.items()))
    assert public - used == UNREACHED
