"""redspectra: reduced Beurling / Carleman / Laplace / weak-Laplace spectra
of sampled vector-valued signals, detectors for asymptotic function
classes, and an executable verification suite for the spectral-inclusion
and tauberian statements they satisfy."""

from .config import Config, DEFAULT
from .signals import (Domain, ExtendedSignal, SampledSignal, convolve,
                      extend_by_zero, modulate, mollify, translate)
from .kernels import (TestKernel, annihilator_kernel, bandpass_kernel,
                      bump_kernel, d_bump)
from .classes import (ClassReport, FunctionClass, Tri, ap_decompose,
                      bohr_coefficient, detect, ergodic_mean, is_c0,
                      is_slowly_oscillating, tail_sup, uc_modulus)
from .transforms import HalfPlaneGrid, half_plane_scan, laplace_transform
from .spectra import (FrequencyGrid, RegStatus, RegularityCertificate,
                      SignalAnalysis, SpectrumEstimate, carleman_spectrum,
                      laplace_spectrum, reduced_spectrum,
                      weak_laplace_spectrum)
from .theorems import (CheckResult, CheckStatus, EvolutionProblem,
                       check_evolution_spectrum, check_inclusion_chain,
                       check_tauberian, evolution_residual, run_all,
                       solve_evolution)
from .corpus import CorpusSignal, build_corpus

__version__ = "0.1.0"
