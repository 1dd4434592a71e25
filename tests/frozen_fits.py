"""fit_family results frozen in float hex, for tests/test_estim.py.

Four data sets of 300 points, each fitted with the default eight models
and no seed: the frozen file data/workhorse-300.csv (draws from
GKw(2, 3, 1.5, 0.5, 2)), and three gamma = 1 laws drawn by exact
inversion of seeded uniforms (see :func:`frozen_fit_data`), so that the
data do not move when the sampler does.  The results were recorded with
the log-likelihood code that built every link of the log chain afresh
at every evaluation; a rewrite of that code must reproduce them to the
last bit.  Per model: (theta_hat, loglik, iterations, grad_norm,
converged, std_errors, boundary).
"""

import os

import numpy as np

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# name -> (alpha, beta, gamma, delta, lambda) with gamma = 1, and seed
_KWKW_LAWS = {
    "kwkw-ridge": ((2.0, 3.0, 1.0, 1.0, 0.7), 7001),
    "bathtub-kwkw": ((0.7, 0.8, 1.0, 0.6, 0.9), 7002),
    "mc-gamma-one": ((1.0, 1.0, 1.0, 4.0, 2.0), 7003),
}


def frozen_fit_data(name: str) -> np.ndarray:
    """The data set behind FROZEN_FITS[name]."""
    if name == "workhorse-300":
        return np.loadtxt(os.path.join(DATA_DIR, "workhorse-300.csv"), skiprows=1)
    (a, b, _, d, l), seed = _KWKW_LAWS[name]
    # V ~ Beta(1, d + 1) is 1 - (1 - u)^(1/(d+1)); x inverts the chain
    u = np.random.default_rng(seed).uniform(size=300)
    v = -np.expm1(np.log1p(-u) / (d + 1.0))
    return (-np.expm1(np.log1p(-v ** (1.0 / l)) / b)) ** (1.0 / a)


FROZEN_FITS = {
    'workhorse-300': {
        'Beta': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.bcdf2e6b44c7ap+2', '0x1.11b8640305768p+2', '0x1.0000000000000p+0'),
            '0x1.5d51bcbf7cdbep+7', 8, '0x1.1b332bc250129p-17', True,
            ('0x1.1eaf9125d93c5p-1', '0x1.ae4ff745b3682p-2'),
            ()),
        'Kw': (
            ('0x1.1266fb9368a75p+2', '0x1.b94545aeca3b4p+2', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0'),
            '0x1.55420c719f031p+7', 8, '0x1.354f24c8db093p-17', True,
            ('0x1.c8f7b93d5fefbp-3', '0x1.8845888406a79p-1'),
            ()),
        'BP': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.dfcf66cefc3acp+14', '0x1.0ad969cce8bf8p+2', '0x1.27a5e7064c940p-12'),
            '0x1.5dc2deab56ffcp+7', 91, '0x1.bb6391cb8652dp-10', False,
            None,
            ()),
        'EKw': (
            ('0x1.1acec287110e6p+0', '0x1.bda76cefd64dep+1', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.2ce88b7152265p+3'),
            '0x1.5f7704233d317p+7', 22, '0x1.26cdc54c218efp-20', True,
            ('0x1.72d3b4d22799ap-1', '0x1.5a4a1d29235cep-1', '0x1.5d8792ded2320p+3'),
            ()),
        'Mc': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.dfcf66cefc3acp+14', '0x1.0ad969cce8bf8p+2', '0x1.27a5e7064c940p-12'),
            '0x1.5dc2deab56ffcp+7', 91, '0x1.bb6391cb8652dp-10', False,
            None,
            ()),
        'BKw': (
            ('0x1.17e9fee09ea11p-26', '0x1.95400455f1ac5p+0', '0x1.23f38428af83cp+43', '0x1.4113cd25fd828p+0', '0x1.0000000000000p+0'),
            '0x1.5fd6a98156243p+7', 133, '0x1.6e64972e348dap-14', True,
            None,
            ('gamma',)),
        'KwKw': (
            ('0x1.3f4a07c6d9dabp-23', '0x1.d557b4504fb61p+0', '0x1.0000000000000p+0', '0x1.ada941f1c8a85p-1', '0x1.370470aec28edp+43'),
            '0x1.5f8aa478a2412p+7', 104, '0x1.35abefcdbfc0fp-6', False,
            None,
            ('lam',)),
        'GKw': (
            ('0x1.17e9fee09ea11p-26', '0x1.95400455f1ac5p+0', '0x1.23f38428af83cp+43', '0x1.4113cd25fd828p+0', '0x1.0000000000000p+0'),
            '0x1.5fd6a98156243p+7', 0, '0x1.6e64972e348dap-14', True,
            None,
            ('gamma',)),
    },
    'kwkw-ridge': {
        'Beta': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.a9f6dd478666ap+0', '0x1.cfe2887e01cc2p+1', '0x1.0000000000000p+0'),
            '0x1.25d39374070bcp+7', 8, '0x1.e327e35a04360p-19', True,
            ('0x1.0071aa412d062p-3', '0x1.8798dcdb9281fp-2'),
            ()),
        'Kw': (
            ('0x1.797fbe6fe72a3p+0', '0x1.508f077cc68a9p+2', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0'),
            '0x1.25d9b998e39b2p+7', 8, '0x1.fafe39016db7ap-19', True,
            ('0x1.499617409f30ep-4', '0x1.1e723bf6c34e7p-1'),
            ()),
        'BP': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.3f217b6c8deb0p+0', '0x1.f8d3a5ecf6b44p+1', '0x1.3ff5561bd0efbp+0'),
            '0x1.26086e43bf622p+7', 10, '0x1.be3feae09de01p-15', True,
            ('0x1.67f940aeb97ecp-1', '0x1.b888838f08a3dp-1', '0x1.12f978d532ea8p-1'),
            ()),
        'EKw': (
            ('0x1.43831f137d404p+0', '0x1.2f2cb639f7eaep+2', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.3f331d949596bp+0'),
            '0x1.262a2f5275315p+7', 16, '0x1.d3c1b5bfe7589p-19', True,
            ('0x1.7acfc9b8b321ep-2', '0x1.fc8643adf3e1fp-1', '0x1.06d8636be6cd9p-1'),
            ()),
        'Mc': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.3f217b6c8deb0p+0', '0x1.f8d3a5ecf6b44p+1', '0x1.3ff5561bd0efbp+0'),
            '0x1.26086e43bf622p+7', 10, '0x1.be3feae09de01p-15', True,
            ('0x1.67f940aeb97ecp-1', '0x1.b888838f08a3dp-1', '0x1.12f978d532ea8p-1'),
            ()),
        'BKw': (
            ('0x1.4383254026026p+0', '0x1.2f2cba4d44b83p+2', '0x1.3f3314905a469p+0', '0x0.0p+0', '0x1.0000000000000p+0'),
            '0x1.262a2f5275307p+7', 8, '0x1.e682bdec3fbf9p-17', True,
            ('0x1.7acfab2a944b8p-2', '0x1.fc862a37f5de9p-1', '0x1.06d840aa2266cp-1', 'nan'),
            ('delta',)),
        'KwKw': (
            ('0x1.1698caf1ff715p+0', '0x1.3f3d8e4df91dap+1', '0x1.0000000000000p+0', '0x1.b48780c3e01c9p-1', '0x1.72634e25e1a5dp+0'),
            '0x1.26316de34c8bcp+7', 69, '0x1.56a1baa8445aap-15', True,
            ('0x1.8071d8a30dde6p+0', '0x1.157a58af8ce97p+3', '0x1.9100590532478p+2', '0x1.083818c60aed5p+1'),
            ()),
        'GKw': (
            ('0x1.05dceaf2be24ep+0', '0x1.6cc69624f035ep+1', '0x1.4cc9f54b70ec7p-1', '0x1.2ea8c4eff1c7fp-1', '0x1.2e821738ae69ap+1'),
            '0x1.264520797156fp+7', 55, '0x1.b952648a31502p-16', True,
            ('0x1.1b90b888c3758p+0', '0x1.4dd53d49d8a36p+2', '0x1.09ca28c5ced3fp+0', '0x1.60e154877e738p+1', '0x1.1b4b2210132ecp+2'),
            ()),
    },
    'bathtub-kwkw': {
        'Beta': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.1e0d06c0debaap-1', '0x1.052b32ebce452p-2', '0x1.0000000000000p+0'),
            '0x1.7b0df1d826990p+6', 12, '0x1.db90e51825fd8p-20', True,
            ('0x1.3e68bb7a9c080p-5', '0x1.ae0acec3d19d5p-4'),
            ()),
        'Kw': (
            ('0x1.2680ea12d22d9p-1', '0x1.3fe6e6b9ce1e8p+0', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0'),
            '0x1.7d0453103775ap+6', 8, '0x1.e9d46cd3cd211p-20', True,
            ('0x1.4c3e60512c6d9p-5', '0x1.8df2ddd26f195p-4'),
            ()),
        'BP': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.14e807474c5d4p+15', '0x1.ff04e48f086a2p-3', '0x1.287815cece565p-16'),
            '0x1.7e9fb14f974a8p+6', 40, '0x1.860dda4609a23p-14', True,
            None,
            ()),
        'EKw': (
            ('0x1.29d22efa28b33p-38', '0x1.2d8be2d2446f1p+0', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.2dde2ec80564cp+43'),
            '0x1.84c0f4fb44576p+6', 63, '0x1.f5e2a1c29702cp-21', True,
            ('0x1.5dca503481a0ap-26', '0x1.baa6318adf578p-5', '0x1.a19f46702804fp+55'),
            ('alpha', 'lam')),
        'Mc': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.14e807474c5d4p+15', '0x1.ff04e48f086a2p-3', '0x1.287815cece565p-16'),
            '0x1.7e9fb14f974a8p+6', 40, '0x1.860dda4609a23p-14', True,
            None,
            ()),
        'BKw': (
            ('0x1.9d7f93b03f254p-38', '0x1.2d8bdbc885986p+0', '0x1.9a2c722c218f2p+42', '0x0.0p+0', '0x1.0000000000000p+0'),
            '0x1.84c0f4fb43275p+6', 76, '0x1.9112a0871ffa7p-17', True,
            ('0x1.b2f40006cc04ap-30', '0x1.baa5ef1cc5c09p-5', '0x1.fc37cc71718e5p+50', 'nan'),
            ('alpha', 'gamma', 'delta')),
        'KwKw': (
            ('0x1.4a52d32db6eebp+0', '0x1.9ed4ed678c280p-4', '0x1.0000000000000p+0', '0x1.48de362207ec9p+2', '0x1.0cbcdc5dae482p-1'),
            '0x1.86a9090f111e8p+6', 43, '0x1.7d5a19257ea65p-15', True,
            ('0x1.f575ab6a46b65p-1', '0x1.62ca6793ceeebp-2', '0x1.0f21b1c018591p+4', '0x1.9d8df58edc086p-2'),
            ()),
        'GKw': (
            ('0x1.3cfbb042fe5d1p-1', '0x1.fcbd272133a1ep-4', '0x1.ef349487359e9p+15', '0x1.4647fe5ff8ca9p+2', '0x1.098ef529c4103p-15'),
            '0x1.88dff08e1413dp+6', 34, '0x1.121cf10ee4d6ap-10', False,
            None,
            ()),
    },
    'mc-gamma-one': {
        'Beta': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.21bb7b8d4569cp+1', '0x1.7ff87959c6c97p+1', '0x1.0000000000000p+0'),
            '0x1.a06bc61a25fdcp+6', 10, '0x1.8c92175e90e71p-18', True,
            ('0x1.64fef222e8074p-3', '0x1.4ab1f58ab9d30p-2'),
            ()),
        'Kw': (
            ('0x1.ec1ac77b3c54cp+0', '0x1.343375c9c549dp+2', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0'),
            '0x1.a5c6bacda654cp+6', 8, '0x1.99ec304a620e6p-26', True,
            ('0x1.b975c88e2660fp-4', '0x1.050eff44944dbp-1'),
            ()),
        'BP': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.3c04a633d0f85p-1', '0x1.39cf678e458e3p+2', '0x1.658c4bed5a9f2p+1'),
            '0x1.a76c8b3aca376p+6', 40, '0x1.b02d40ed0d4f7p-18', True,
            ('0x1.2ad2ccd7e1613p-2', '0x1.a6fc7b057fc05p+0', '0x1.088ac9b438510p+0'),
            ()),
        'EKw': (
            ('0x1.581f6e8dc2493p+1', '0x1.96145d1b50e96p+2', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.472a755e4b9c5p-1'),
            '0x1.a7deac8d77018p+6', 18, '0x1.0ad5faa1c9fb1p-20', True,
            ('0x1.b2a0eb0616be6p-1', '0x1.00eec0226b669p+1', '0x1.0cd1a8b5321eep-2'),
            ()),
        'Mc': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.3c04a633d0f85p-1', '0x1.39cf678e458e3p+2', '0x1.658c4bed5a9f2p+1'),
            '0x1.a76c8b3aca376p+6', 40, '0x1.b02d40ed0d4f7p-18', True,
            ('0x1.2ad2ccd7e1613p-2', '0x1.a6fc7b057fc05p+0', '0x1.088ac9b438510p+0'),
            ()),
        'BKw': (
            ('0x1.581f731daaa98p+1', '0x1.9614628981fe9p+2', '0x1.472a707265177p-1', '0x0.0p+0', '0x1.0000000000000p+0'),
            '0x1.a7deac8d76fecp+6', 10, '0x1.ce8f3a3bbef20p-17', True,
            ('0x1.b2a110001ac7cp-1', '0x1.00eed6286ac69p+1', '0x1.0cd1b8095ba1fp-2', 'nan'),
            ('delta',)),
        'KwKw': (
            ('0x1.8ace9db7c435bp+3', '0x1.d60a9cd80e8bcp+2', '0x1.0000000000000p+0', '0x1.ed0ef79900bd6p+0', '0x1.2939e448fededp-3'),
            '0x1.a9f1891e20e68p+6', 85, '0x1.c00114cc3acc6p-18', True,
            ('0x1.f2f57af58e6fbp+3', '0x1.ac9f83e911eedp+3', '0x1.0a27f3c90f42ap+0', '0x1.706c399e99bedp-3'),
            ()),
        'GKw': (
            ('0x1.6084d0e8eaf3ep+0', '0x1.9e18eb97a6035p+1', '0x1.2b881f7c70e02p-5', '0x1.8d83825059a30p+0', '0x1.316a0aff3866ep+5'),
            '0x1.ab5ba5ee13e1ep+6', 54, '0x1.df715f39e6a9cp-20', True,
            ('0x1.363e747097b4ep+0', '0x1.03e8660fca55fp+1', '0x1.9db0d6164e38fp-5', '0x1.f3c7b1e85ce73p+0', '0x1.63e3fde8d8468p+5'),
            ()),
    },
}
