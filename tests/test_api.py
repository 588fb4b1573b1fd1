"""The package's public keyword options, held to an allowlist.

An option is a defaulted parameter of a function the ``rmlab`` package
exports, or of a plain method of a class it exports (dataclass
constructors, whose defaults are fields, and class methods are not
counted).  A tolerance that no caller sets is a module constant, not an
option, so adding or removing an option means editing this list.
"""

import inspect

import rmlab

OPTIONS = {
    "analyze": ("n_cap", "fixed_cap"),
    "characters_equal": ("max_strands", "max_len", "tol"),
    "find_solution": ("restarts", "seed", "max_iterations",
                      "target_residual", "jobs"),
    "is_involutive": ("tol",),
    "is_trivial": ("tol",),
    "load_solution": ("tol",),
    "make_simple": ("label",),
    "make_trivial": ("q",),
    "nullspace": ("scale",),
    "partial_trace_invariant": ("tol",),
    "random_family2": ("symmetric",),
    "random_family3": ("special",),
    "random_simple_spec": ("unit_offdiag",),
    "relative_commutant_L": ("max_strands",),
    "search_unitary_solution": ("seed", "max_iterations", "target_residual",
                                "initial"),
    "shift": ("k",),
    "solution_from_dict": ("tol",),
    "verify": ("d", "tol", "label"),
    "ybe_defect": ("d",),
    "ybe_euclidean_gradient": ("d", "state"),
    "ybe_objective": ("d",),
}


def _public_options() -> dict:
    out = {}
    for name, obj in vars(rmlab).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj):
            routines = [(name, obj)]
        elif inspect.isclass(obj):
            routines = [(f"{name}.{attr}", fn)
                        for attr, fn in vars(obj).items()
                        if not attr.startswith("_") and inspect.isfunction(fn)]
        else:
            continue
        for qualname, fn in routines:
            params = tuple(p.name for p in
                           inspect.signature(fn).parameters.values()
                           if p.default is not inspect.Parameter.empty)
            if params:
                out[qualname] = params
    return out


def test_every_public_option_is_on_the_allowlist():
    assert _public_options() == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 34
