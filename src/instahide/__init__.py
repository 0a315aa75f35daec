"""Mixing-based image encryption, attacks on it, and statistical validators.

The package has three layers:

* schemes: ``SchemeConfig`` + ``encrypt_sample`` / ``encrypt_epoch`` /
  ``encrypt_history`` produce masked mixtures of private (and optionally
  public) images; keys stay in process and are never serialized.
* attacks: recover structure from encryptions alone (pair detection,
  public scans, fourth-moment ranking, averaging, SSIM search, gradient
  matching), each returning an ``AttackReport``.
* validators: Monte Carlo checks of the concentration bounds behind the
  scheme's security argument plus the KS indistinguishability protocol.
"""

import types as _types

from .attacks import (
    AttackReport,
    SignOracle,
    averaging_attack,
    braverman_attack,
    braverman_statistic,
    gradient_matching_attack,
    pair_detection_attack,
    public_scan_attack,
    similarity_search_attack,
    ssim,
    ssim_pairwise,
)
from .core import (
    Coefficients,
    Dataset,
    Image,
    LabelVector,
    SignMask,
    make_gaussian_dataset,
    normalize_image,
    one_hot,
    sample_coefficients,
    sample_sign_mask,
    scan_scores,
)
from .encrypt import (
    SCHEMES,
    EncryptedSample,
    EncryptedSamples,
    EncryptionKey,
    EncryptionKeys,
    SchemeConfig,
    encrypt_epoch,
    encrypt_history,
    encrypt_input,
    encrypt_sample,
    export_challenge,
)
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    DivergenceError,
    FormatError,
    InfeasibleConstraintError,
    TruncatedFileError,
    ValidationError,
)
from .ihds import import_raw, load_dataset, save_dataset
from .publicprep import PatchSet, build_patchset, load_patchset, save_patchset
from .rng import RngStream
from .stats import (
    ConcentrationCheckConfig,
    IndistinguishabilityReport,
    check_bernstein_tail,
    check_chi_square_tail,
    check_inner_product_concentration,
    check_theorem_gap,
    indistinguishability_protocol,
    kolmogorov_survival,
    ks_uniform,
)
from .utility import (
    LinearSoftmaxModel,
    evaluate,
    init_model,
    load_model,
    loss_and_gradient,
    predict_encrypted,
    save_model,
    train,
    train_encrypted,
)

__version__ = "0.1.0"

# every public name imported above, and no submodule
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
