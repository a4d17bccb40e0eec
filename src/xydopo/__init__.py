"""Exact solvers for the periodic XY spin chain and the spectrally matched
network of parametrically driven coupled oscillators, with an exact
diagonalization oracle and sweep tooling."""

__version__ = "0.1.0"

from .types import (
    ANTIPERIODIC,
    CRITICAL,
    NORMAL,
    ORDERED,
    PERIODIC,
    PARAMAGNETIC,
    SUPERRADIANT,
    DegenerateModelError,
    DopoParams,
    MomentumGrid,
    NonphysicalDriveError,
    NoSqueezedVacuumError,
    NumericalError,
    Spectrum,
    SingularMapError,
    SweepRecord,
    UnstablePhaseError,
    UnsupportedParameterError,
    XYParams,
    build_grid,
)
from .quadrature import Integral, QuadratureSpec, integrate
from .xy import (
    CriticalFieldSet,
    FieldDerivative,
    xy_critical_fields,
    xy_dispersion,
    xy_energy_density,
    xy_gap,
    xy_ground_energy_finite,
    xy_ground_energy_ring,
    xy_magnetization,
    xy_phase,
    xy_spectrum,
    xy_susceptibility,
)
from .dopo import (
    SqueezingParams,
    dopo_classify_phase,
    dopo_critical_detuning,
    dopo_energy_density,
    dopo_epsilon,
    dopo_gap,
    dopo_omega_squared,
    dopo_spectrum,
    dopo_squeezing,
    dopo_threshold_detunings,
    dopo_zero_point_energy,
)
from .mapping import (
    MapEnergyReport,
    map_dopo_to_xy,
    map_energy_density,
    map_xy_to_dopo,
    verify_spectral_match,
)
from .ed import EdResult, SectorComparison, ed_ground_state, ed_vs_analytic
from .sweep import (
    CSV_HEADER,
    PRESETS,
    ConfigError,
    SweepConfig,
    config_from_dict,
    preset_config,
    run_critical,
    run_sweep,
    run_validate,
    write_csv,
    write_json,
)
