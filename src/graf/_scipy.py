"""The scipy routines graf calls, each read from its compiled file alone
(1-30 ms, where their packages take 0.05-0.35 s to import).  Every module
a load puts into ``sys.modules`` comes out again once its routine is read,
so a package imported later binds its modules itself and names the very
objects graf holds.  Imports only numpy and the standard library.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

#: The compiled modules that ``scipy.special._ufuncs`` imports as it
#: loads.  Loaded first, they spare it the import of ``scipy.special``.
_LOADED_FIRST = {"special._ufuncs": (
    "special._ufuncs_cxx", "special._ellip_harm_2", "special._special_ufuncs", "special._gufuncs",
)}


def _extension_path(module: str) -> str:
    """Where the extension file of ``scipy.<module>`` would be, found
    without importing scipy.  Raises ModuleNotFoundError without scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    return os.path.join(spec.submodule_search_locations[0], *module.split(".")) + suffix


def _load(module: str, attr: str):
    """``attr`` of scipy's compiled module ``scipy.<module>``, from its
    file after those of :data:`_LOADED_FIRST`, or from the package when
    that is loaded or a file does not load.  Takes a module already in
    ``sys.modules`` as it is, and removes each one it put there."""
    name = "scipy." + module
    if name.rpartition(".")[0] not in sys.modules:
        added = []
        try:
            for part in (*_LOADED_FIRST.get(module, ()), module):
                key = "scipy." + part
                if key not in sys.modules:
                    added.append(key)
                    spec = importlib.util.spec_from_file_location(key, _extension_path(part))
                    # The later files import the earlier ones by name.
                    sys.modules[key] = importlib.util.module_from_spec(spec)
                    spec.loader.exec_module(sys.modules[key])
            return getattr(sys.modules[name], attr)
        except ImportError:
            pass
        finally:
            for key in added:
                sys.modules.pop(key, None)
    return getattr(importlib.import_module(name), attr)


@functools.cache
def linear_sum_assignment():
    """scipy's ``linear_sum_assignment`` (``optimize._lsap``): the field's max and min."""
    return _load("optimize._lsap", "linear_sum_assignment")


@functools.cache
def ndtri():
    """scipy's ``ndtri`` (``special._ufuncs``), which samples the Gaussian costs."""
    return _load("special._ufuncs", "ndtri")


@functools.cache
def log_ndtr():
    """scipy's ``log_ndtr`` (``special._special_ufuncs``), in the ``mu_k`` integrand."""
    return _load("special._special_ufuncs", "log_ndtr")


@functools.cache
def qagpe():
    """QUADPACK's ``qagpe``, which ``scipy.integrate.quad`` calls."""
    return _load("integrate._quadpack", "_qagpe")


def quad(func, a: float, b: float, *, epsabs, epsrel, limit, points):
    """``(value, abserr)`` of ``scipy.integrate.quad`` over finite
    ``a < b`` with break ``points``: the same call to :func:`qagpe`.  A
    nonzero ``ier`` raises ArithmeticError, where ``quad`` warns."""
    inner = np.unique(points)
    inner = inner[(a < inner) & (inner < b)]
    value, abserr, ier = qagpe()(
        func, a, b, np.concatenate((inner, (0.0, 0.0))), (), 0, epsabs, epsrel, limit
    )
    if ier:
        raise ArithmeticError(f"QUADPACK qagpe stopped with ier={ier}")
    return value, abserr
