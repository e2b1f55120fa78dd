"""Elastic distance measures (paper Section 7) — 7 measures + lower bounds."""

from .dtw import DTW, dtw, dtw_path
from .edr import EDR, edr
from .erp import ERP, erp
from .extensions import (
    CID_ED,
    DDTW,
    WDTW,
    cid,
    cid_factor,
    complexity,
    ddtw,
    derivative,
    wdtw,
)
from .lcss import LCSS, lcss
from .lower_bounds import envelope, lb_keogh, lb_kim
from .msm import MSM, msm
from .swale import SWALE, swale, swale_score
from .twe import TWE, twe

__all__ = [
    "dtw",
    "dtw_path",
    "lcss",
    "edr",
    "erp",
    "msm",
    "twe",
    "swale",
    "swale_score",
    "lb_kim",
    "lb_keogh",
    "envelope",
    "ddtw",
    "wdtw",
    "cid",
    "cid_factor",
    "complexity",
    "derivative",
    "DTW",
    "LCSS",
    "EDR",
    "ERP",
    "MSM",
    "TWE",
    "SWALE",
    "DDTW",
    "WDTW",
    "CID_ED",
]
