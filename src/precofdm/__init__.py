"""Precoded-OFDM link simulation and inter-symbol interference analysis."""

__version__ = "0.1.0"

from .channel import (
    ChannelOperator,
    ChannelRealization,
    ChannelSpec,
    PathSpec,
    builtin_channel_spec,
    cdlc_channel_spec,
    exp_profile_spec,
    integer_channel_spec,
    load_channel_profile,
    mild_channel_spec,
    prefix_length_for,
    realize,
    severe_channel_spec,
)
from .dpss import DpssParams, DpssSet, compute_dpss, dpss_limit_half
from .errors import ParameterError
from .isimetrics import (
    BoundReport,
    CrossCorrTensor,
    S2iPoint,
    ebct_all,
    ebct_bound_all,
    half_shift_worst_case_scan,
    isi_bound,
    isi_energy,
    isi_gram,
    isi_transfer,
    s2i_sweep,
    signal_isi_energies,
    xcorr_ofdm_closed,
    xcorr_scfdma_closed,
    xcorr_tensor,
)
from .linksim import (
    FrameConfig,
    SerPoint,
    analytic_qpsk_ser,
    build_frame,
    equalize_and_detect,
    qpsk_map,
    run_ser,
    run_trial,
)
from .waveform import (
    PrecodingScheme,
    PrefixKind,
    PrefixedBasis,
    WaveformBasis,
    active_count,
    default_basis,
    retained_frequencies,
    with_prefix,
)
