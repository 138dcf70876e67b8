"""Rational chiral models: modular data, fusion, modular invariants,
boundary nimreps, exact characters, and channel-duality reports.

``import bcft`` runs no numeric code.  Each public name resolves from
its submodule on first use (PEP 562), and the numeric submodules are
registered through ``importlib.util.LazyLoader``, so a module body runs
when one of its attributes is first read.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# defining submodule -> its public names
_PUBLIC = {
    "characters": "QSeries characters_for eta_series s_transform_residual "
                  "truncation_tail",
    "errors": "BcftError CheckFailure DegenerateExponents "
              "DocumentFormatError IntegralityFailure MigrationError ModelValidationError "
              "NegativityFailure RationalizationFailure SearchBudgetExceeded "
              "SeriesDivisionError SizeMismatch SpectralRadiusTooLarge",
    "fusion": "FusionRing verify_axioms verlinde",
    "invariants": "ModularInvariant diagonal_invariant enumerate_physical exponents_of "
                  "invariant_document",
    "modular_data": "ModularData SectorLabel build_minimal build_su2 global_index load_model "
                    "model_name model_to_document quantum_dims validate",
    "nimreps": "Nimrep PsiMatrix canonical_generator enumerate_su2_nimreps "
               "generate_from_generator nimrep_document nimrep_from_document psi_matrix "
               "regular_nimrep spectrum_match verify",
    "persistence": "DEFAULT_ORDER DEFAULT_PRECISION Cache cache_key canonical_json export",
    "report": "AnnulusSpectrum IndexReport annulus annulus_document full_report "
              "heat_kernel_check heat_kernel_residuals index_document index_report",
}
_SUBMODULE = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = sorted(_SUBMODULE)

for _module in ("hp", "modular_data", "fusion", "invariants", "nimreps", "characters",
                "report"):
    _spec = importlib.util.find_spec("%s.%s" % (__name__, _module))
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _SUBMODULE[name], __name__), name)
    globals()[name] = value
    return value
