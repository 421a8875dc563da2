"""boundcount: negative-eigenvalue counts for 2D Schrodinger operators.

For -Delta - alpha V with V >= 0 on R^2, the package computes the exact
negative-eigenvalue counts of finite-difference discretizations (full 2D,
constrained, and the auxiliary 1D family), the effective 1D potential and
its shell-integral sequence, weak-l1 quasinorms, the L1(R+, Lp(S)) norm of
the non-radial part, and Weyl-law sweeps over the coupling constant.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DomainError, MatrixSizeError, NonFiniteError,
                     NumericalError, QuadratureError, VerificationFailure)
from .potentials import (Decomposition, EffectivePotential, FourierSumPotential,
                         PotentialSpec, ProductPotential, RadialPotential, RadialProfile,
                         TabulatedPotential, annulus_tabulated, decompose, disk_profile,
                         disk_well, effective_potential, fourier_sum, gaussian_profile,
                         gaussian_well, inverse_square_ring, log_borderline,
                         log_borderline_profile, radial_part, ring_profile,
                         validate_nonnegative)
from .seminorms import (WeakNormReport, bound_functional, delta_functionals, l1lp_norm,
                        n_plus, weak_norm_report, weak_quasinorm, weyl_coefficient, zhat)
from .spectra1d import (CountResult, Grid1D, GridPolicy, birman_schwinger_1d,
                        certified_count, count_M, count_channel, count_channels,
                        tridiagonal_negative_count)
from .spectra2d import (BlockSystem2D, ChannelSet, assemble_full_2d, birman_schwinger_2d,
                        count_2d_auto, count_full_2d, count_radial_2d, count_tilde,
                        coupled_cutoff_m_max, hardy_ratio, potential_form,
                        qform_check, radial_cutoff_m_max)
from .asymptotics import (As2Report, EstimReport, LimitEstimate, PropAddReport, SweepResult,
                          check_as2, check_estim, check_prop_add, estimate_limits,
                          read_sweep_csv, sweep, write_plot_files, write_sweep_csv)
from .config import RunConfig, load_config, parse_config, potential_from_config
