"""fit_family results frozen in float hex, for tests/test_estim.py.

Six data sets, each fitted with the default eight models and no seed:
the frozen file data/workhorse-300.csv (300 draws from
GKw(2, 3, 1.5, 0.5, 2)), four gamma = 1 laws drawn by exact inversion
of seeded uniforms (see :func:`frozen_fit_data`), so that the data do
not move when the sampler does -- three of 300 points and kwkw-2000,
2000 points, the size the benchmark fits, where the near branches and
tiny-value patches of the log chain run on long arrays -- and the
frozen file data/nested-0.csv (150 points, the benchmark's
``nested-0`` data set, whose GKw fit has a start that crawls along the
gamma/lambda ridge beside the winning one).  The first four were
recorded with the log-likelihood code that built every link of the log
chain afresh at every evaluation, nested-0 with the optimizer that ran
its starts one after another, and kwkw-2000 before the per-evaluation
overhead of the objective was cut; a rewrite of any of them must
reproduce them to the last bit.  Per model: (theta_hat, loglik,
iterations, grad_norm, converged, std_errors, boundary), and in
FROZEN_TRACES each start's (reason, iterations, evaluations).
FROZEN_SEEDED_FITS and FROZEN_SEEDED_TRACES hold the same for
workhorse-300 fitted with ``seed=SEED``, which pins the jittered starts
of ``gkw fit --seed``.
"""

import os

import numpy as np

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

_CSV = ("workhorse-300", "nested-0")

# name -> (alpha, beta, gamma, delta, lambda) with gamma = 1, seed and size
_KWKW_LAWS = {
    "kwkw-ridge": ((2.0, 3.0, 1.0, 1.0, 0.7), 7001, 300),
    "bathtub-kwkw": ((0.7, 0.8, 1.0, 0.6, 0.9), 7002, 300),
    "mc-gamma-one": ((1.0, 1.0, 1.0, 4.0, 2.0), 7003, 300),
    "kwkw-2000": ((2.0, 3.0, 1.0, 1.0, 0.7), 7004, 2000),
}


def frozen_fit_data(name: str) -> np.ndarray:
    """The data set behind FROZEN_FITS[name]."""
    if name in _CSV:
        return np.loadtxt(os.path.join(DATA_DIR, name + ".csv"), skiprows=1)
    (a, b, _, d, l), seed, size = _KWKW_LAWS[name]
    # V ~ Beta(1, d + 1) is 1 - (1 - u)^(1/(d+1)); x inverts the chain
    u = np.random.default_rng(seed).uniform(size=size)
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
    'nested-0': {
        'Beta': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.863c62a3af1fdp+0', '0x1.9c8cec7bc92a9p+0', '0x1.0000000000000p+0'),
            '0x1.eb60171a592d8p+4', 8, '0x1.16a747e5b2548p-22', True,
            ('0x1.4cc5e97397ca8p-3', '0x1.302ec0b1ca57ep-2'),
            ()),
        'Kw': (
            ('0x1.6ce8ac50cc905p+0', '0x1.603bf0c871b57p+1', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0'),
            '0x1.eb68908a2b27cp+4', 7, '0x1.d782a1fcce5b9p-21', True,
            ('0x1.f55122ea6c6d8p-4', '0x1.71613c86d5542p-2'),
            ()),
        'BP': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.eb9ff4b5c8687p-1', '0x1.c53165b28208ep+0', '0x1.7987fd306e822p+0'),
            '0x1.eb68b73142020p+4', 20, '0x1.654c924c1e64dp-23', True,
            ('0x1.17457e225dea2p+2', '0x1.13ef6a3d0df26p+1', '0x1.6736caad852c8p+2'),
            ()),
        'EKw': (
            ('0x1.0c7436d4fa6ebp+1', '0x1.a5392134c8377p+1', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.3ee1c862ce6dep-1'),
            '0x1.eca2bf8fb2d5cp+4', 21, '0x1.c1c14f40484e5p-21', True,
            ('0x1.ea6aa9b0bef86p+0', '0x1.ae109bf2b4cd3p+0', '0x1.5f5b62e20659ap-1'),
            ()),
        'Mc': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.eb9ff4b5c8687p-1', '0x1.c53165b28208ep+0', '0x1.7987fd306e822p+0'),
            '0x1.eb68b73142020p+4', 20, '0x1.654c924c1e64dp-23', True,
            ('0x1.17457e225dea2p+2', '0x1.13ef6a3d0df26p+1', '0x1.6736caad852c8p+2'),
            ()),
        'BKw': (
            ('0x1.3ecd0e04b102ep-3', '0x1.5cd89de5fb543p-12', '0x1.2c89f8715a251p+3', '0x1.c1f903343fb68p+13', '0x1.0000000000000p+0'),
            '0x1.f0f9a9f943418p+4', 149, '0x1.b63be5b26f23ap-11', False,
            None,
            ()),
        'KwKw': (
            ('0x1.9d59e6c06cbb6p+7', '0x1.370470aec28edp+43', '0x1.0000000000000p+0', '0x1.7081dc75af568p-1', '0x1.9122b1aea229bp-8'),
            '0x1.02141ff7aebf9p+5', 85, '0x1.d1843d935be00p-16', True,
            ('0x1.5316aa1bfe7dbp+8', '0x1.e17a65dfc0d13p+48', '0x1.553bd27bb090ep-2', '0x1.49759650274a6p-7'),
            ('beta',)),
        'GKw': (
            ('0x1.982f3211f3df3p+7', '0x1.370470aec28edp+43', '0x1.cda6258176a0cp+14', '0x1.54a0a99d3cf78p-1', '0x1.108e8251ed065p-22'),
            '0x1.05b27a3be1d19p+5', 130, '0x1.9c70e4da2903dp-10', False,
            None,
            ('beta',)),
    },
    'kwkw-2000': {
        'Beta': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.8ebcfe37d7b33p+0', '0x1.aede12e357050p+1', '0x1.0000000000000p+0'),
            '0x1.dc101ec6d0baap+9', 8, '0x1.53ecc8c3fe6b7p-15', True,
            ('0x1.723579c44805bp-5', '0x1.1ef4b16103d69p-3'),
            ()),
        'Kw': (
            ('0x1.6b03657f9a765p+0', '0x1.3ba5d77d8f085p+2', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0'),
            '0x1.dd96667cf65c1p+9', 8, '0x1.3b559cf576a6ep-14', True,
            ('0x1.f5475076b6b6fp-6', '0x1.9ef35148ca086p-3'),
            ()),
        'BP': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.8d23b2dc5ccedp-1', '0x1.1ac54cf6522b0p+2', '0x1.b931d64a8384ap+0'),
            '0x1.ddee69f73f368p+9', 12, '0x1.5b6c6b6f75e91p-15', True,
            ('0x1.3ba9d8e4548c8p-3', '0x1.057af8d8e57f5p-1', '0x1.0f22b226aa0aap-2'),
            ()),
        'EKw': (
            ('0x1.acbd67429c944p+0', '0x1.66a17bae08e8bp+2', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.9853a21d1db2ep-1'),
            '0x1.de086411fc849p+9', 17, '0x1.0ff9910d8ead7p-16', True,
            ('0x1.a1ba3a47553dfp-3', '0x1.347bc5909d403p-1', '0x1.092707476f091p-3'),
            ()),
        'Mc': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.8d23b2dc5ccedp-1', '0x1.1ac54cf6522b0p+2', '0x1.b931d64a8384ap+0'),
            '0x1.ddee69f73f368p+9', 12, '0x1.5b6c6b6f75e91p-15', True,
            ('0x1.3ba9d8e4548c8p-3', '0x1.057af8d8e57f5p-1', '0x1.0f22b226aa0aap-2'),
            ()),
        'BKw': (
            ('0x1.acbd75c9e797ap+0', '0x1.66a1861bc123dp+2', '0x1.98539115e6b8fp-1', '0x0.0p+0', '0x1.0000000000000p+0'),
            '0x1.de086411fc7fap+9', 8, '0x1.7f2c7ee13cb0cp-13', True,
            ('0x1.a1ba73d351e93p-3', '0x1.347bf12c19a75p-1', '0x1.092717bc11110p-3', 'nan'),
            ('delta',)),
        'KwKw': (
            ('0x1.27317db5011bep+3', '0x1.92b9ab2dfcf85p+1', '0x1.0000000000000p+0', '0x1.5f71d3fc43407p+1', '0x1.2fe2e2709fcccp-3'),
            '0x1.de7f46b33dd82p+9', 74, '0x1.90d4f0427566ep-12', True,
            ('0x1.a2813288313cdp+3', '0x1.cb78ad8eb1374p+1', '0x1.5c5c07b7213d2p-1', '0x1.ab0b5e1eca950p-3'),
            ()),
        'GKw': (
            ('0x1.0d696f4c3dc2bp+2', '0x1.f57ad8e3bbe46p+1', '0x1.4cab901952858p+2', '0x1.4cb515c13206ep+0', '0x1.2cdc901e4569ap-4'),
            '0x1.deb440417e686p+9', 54, '0x1.23d94ee5e7abep-11', True,
            ('0x1.49c6f9ecbd1dbp+2', '0x1.d8d0a096e57b6p+0', '0x1.0cac4fbf59800p+6', '0x1.e85b4de49bd44p+0', '0x1.9f0a98755e54dp-1'),
            ()),
    },
}


# name -> model -> (reason, iterations, evaluations) of each start, in start
# order, recorded with the same code as the kwkw-2000 fits
FROZEN_TRACES = {
    'workhorse-300': {
        'Beta': (('gradient', 5, 20), ('gradient', 8, 13), ('gradient', 8, 14),),
        'Kw': (('gradient', 8, 12), ('gradient', 9, 16), ('gradient', 8, 13),),
        'BP': (('gradient', 67, 93), ('line_search', 83, 146), ('line_search', 91, 195), ('line_search', 80, 167),),
        'EKw': (('gradient', 24, 31), ('gradient', 22, 26), ('gradient', 21, 29), ('gradient', 19, 32),),
        'Mc': (('gradient', 67, 93), ('line_search', 83, 146), ('line_search', 91, 195), ('line_search', 80, 167),),
        'BKw': (('abandoned', 60, 264), ('gradient', 133, 280), ('line_search', 104, 244), ('abandoned', 50, 274), ('gradient', 19, 32),),
        'KwKw': (('stalled', 104, 335), ('stalled', 135, 338), ('gradient', 106, 137), ('gradient', 19, 32), ('gradient', 0, 1),),
        'GKw': (('abandoned', 71, 474), ('stalled', 93, 380), ('line_search', 152, 327), ('abandoned', 59, 268), ('gradient', 16, 31), ('line_search', 107, 325), ('gradient', 0, 1), ('gradient', 0, 1), ('line_search', 89, 192),),
    },
    'kwkw-ridge': {
        'Beta': (('gradient', 4, 19), ('gradient', 8, 12), ('gradient', 8, 13),),
        'Kw': (('gradient', 9, 12), ('gradient', 8, 13), ('gradient', 8, 14),),
        'BP': (('gradient', 10, 26), ('gradient', 12, 19), ('gradient', 33, 40), ('gradient', 9, 26),),
        'EKw': (('gradient', 16, 21), ('gradient', 14, 20), ('gradient', 17, 22), ('gradient', 8, 26),),
        'Mc': (('gradient', 10, 26), ('gradient', 12, 19), ('gradient', 33, 40), ('gradient', 9, 26),),
        'BKw': (('gradient', 107, 152), ('gradient', 121, 159), ('gradient', 95, 116), ('gradient', 101, 147), ('gradient', 8, 26),),
        'KwKw': (('gradient', 33, 52), ('gradient', 29, 40), ('gradient', 69, 97), ('gradient', 8, 26), ('gradient', 0, 1),),
        'GKw': (('gradient', 55, 83), ('gradient', 42, 52), ('gradient', 50, 56), ('gradient', 49, 76), ('gradient', 8, 28), ('gradient', 43, 68), ('gradient', 0, 1), ('gradient', 0, 1), ('gradient', 23, 43),),
    },
    'bathtub-kwkw': {
        'Beta': (('gradient', 8, 14), ('gradient', 11, 13), ('gradient', 12, 15),),
        'Kw': (('gradient', 9, 13), ('gradient', 8, 13), ('gradient', 9, 12),),
        'BP': (('gradient', 40, 60), ('line_search', 44, 102), ('line_search', 44, 100), ('line_search', 37, 103),),
        'EKw': (('gradient', 71, 123), ('gradient', 63, 140), ('gradient', 84, 156), ('gradient', 47, 117),),
        'Mc': (('gradient', 40, 60), ('line_search', 44, 102), ('line_search', 44, 100), ('line_search', 37, 103),),
        'BKw': (('stalled', 98, 277), ('gradient', 118, 139), ('gradient', 56, 64), ('gradient', 76, 148), ('gradient', 51, 83),),
        'KwKw': (('stalled', 48, 250), ('gradient', 40, 56), ('gradient', 43, 53), ('gradient', 47, 79), ('gradient', 0, 1),),
        'GKw': (('abandoned', 46, 257), ('abandoned', 78, 565), ('abandoned', 47, 317), ('gradient', 34, 55), ('gradient', 47, 71), ('line_search', 34, 157), ('gradient', 0, 1), ('gradient', 0, 1), ('line_search', 236, 381),),
    },
    'mc-gamma-one': {
        'Beta': (('gradient', 5, 18), ('gradient', 9, 14), ('gradient', 10, 15),),
        'Kw': (('gradient', 8, 12), ('gradient', 8, 13), ('gradient', 9, 14),),
        'BP': (('gradient', 13, 28), ('gradient', 18, 28), ('gradient', 40, 51), ('gradient', 14, 30),),
        'EKw': (('gradient', 14, 20), ('gradient', 18, 24), ('gradient', 19, 25), ('gradient', 10, 26),),
        'Mc': (('gradient', 13, 28), ('gradient', 18, 28), ('gradient', 40, 51), ('gradient', 14, 30),),
        'BKw': (('gradient', 105, 143), ('gradient', 109, 140), ('gradient', 132, 170), ('gradient', 105, 151), ('gradient', 10, 26),),
        'KwKw': (('gradient', 50, 67), ('gradient', 85, 115), ('gradient', 52, 73), ('gradient', 10, 26), ('gradient', 0, 1),),
        'GKw': (('abandoned', 142, 256), ('abandoned', 64, 278), ('gradient', 54, 60), ('abandoned', 158, 271), ('gradient', 9, 28), ('abandoned', 152, 225), ('gradient', 0, 1), ('gradient', 0, 1), ('gradient', 16, 33),),
    },
    'nested-0': {
        'Beta': (('gradient', 6, 18), ('gradient', 8, 13), ('gradient', 10, 14),),
        'Kw': (('gradient', 9, 13), ('gradient', 7, 11), ('gradient', 7, 15),),
        'BP': (('gradient', 20, 37), ('gradient', 31, 37), ('gradient', 57, 78), ('gradient', 17, 29),),
        'EKw': (('gradient', 17, 25), ('gradient', 21, 28), ('gradient', 21, 25), ('gradient', 9, 23),),
        'Mc': (('gradient', 20, 37), ('gradient', 31, 37), ('gradient', 57, 78), ('gradient', 17, 29),),
        'BKw': (('line_search', 149, 250), ('gradient', 74, 88), ('gradient', 77, 89), ('line_search', 135, 288), ('gradient', 9, 23),),
        'KwKw': (('gradient', 71, 176), ('gradient', 85, 272), ('stalled', 73, 275), ('gradient', 9, 23), ('gradient', 0, 1),),
        'GKw': (('abandoned', 140, 201), ('abandoned', 58, 326), ('line_search', 130, 236), ('abandoned', 127, 201), ('gradient', 9, 24), ('abandoned', 137, 201), ('gradient', 0, 1), ('abandoned', 132, 201), ('line_search', 52, 170),),
    },
    'kwkw-2000': {
        'Beta': (('gradient', 5, 18), ('gradient', 8, 12), ('gradient', 9, 14),),
        'Kw': (('gradient', 9, 12), ('gradient', 8, 13), ('gradient', 10, 16),),
        'BP': (('gradient', 12, 28), ('gradient', 14, 21), ('gradient', 36, 43), ('gradient', 11, 28),),
        'EKw': (('gradient', 17, 22), ('gradient', 16, 22), ('gradient', 17, 22), ('gradient', 8, 27),),
        'Mc': (('gradient', 12, 28), ('gradient', 14, 21), ('gradient', 36, 43), ('gradient', 11, 28),),
        'BKw': (('gradient', 143, 204), ('gradient', 148, 200), ('gradient', 135, 179), ('gradient', 139, 201), ('gradient', 8, 27),),
        'KwKw': (('abandoned', 89, 270), ('gradient', 74, 103), ('line_search', 107, 223), ('gradient', 8, 27), ('gradient', 0, 1),),
        'GKw': (('gradient', 72, 108), ('gradient', 132, 181), ('gradient', 77, 92), ('abandoned', 207, 298), ('gradient', 8, 29), ('abandoned', 154, 245), ('gradient', 0, 1), ('gradient', 0, 1), ('gradient', 54, 88),),
    },
}


# fit_family with seed=SEED: FROZEN_FITS' fields, and each start's (reason,
# iterations, evaluations), a fit's last two starts being the seeded ones
SEED = 11
FROZEN_SEEDED_FITS = {
    'workhorse-300': {
        'Beta': (
            ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.bcdf2fe875a56p+2', '0x1.11b86506e1097p+2', '0x1.0000000000000p+0'),
            '0x1.5d51bcbf7cdcep+7', 9, '0x1.b86a07ca1663dp-17', True,
            ('0x1.1eaf921ed5291p-1', '0x1.ae4ff8983790ap-2'),
            ()),
        'Kw': (
            ('0x1.1266fbbaea1fcp+2', '0x1.b94545d47dc9dp+2', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0'),
            '0x1.55420c719f034p+7', 7, '0x1.2040745e12eddp-20', True,
            ('0x1.c8f7b910474f5p-3', '0x1.88458843ab08fp-1'),
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
}

FROZEN_SEEDED_TRACES = {
    'workhorse-300': {
        'Beta': (('gradient', 5, 20), ('gradient', 8, 13), ('gradient', 8, 14), ('gradient', 9, 13), ('gradient', 10, 14),),
        'Kw': (('gradient', 8, 12), ('gradient', 9, 16), ('gradient', 8, 13), ('gradient', 9, 13), ('gradient', 7, 14),),
        'BP': (('gradient', 67, 93), ('line_search', 83, 146), ('line_search', 91, 195), ('line_search', 74, 140), ('line_search', 92, 153), ('gradient', 86, 114),),
        'EKw': (('gradient', 24, 31), ('gradient', 22, 26), ('gradient', 21, 29), ('gradient', 19, 32), ('gradient', 16, 23), ('gradient', 21, 31),),
        'Mc': (('gradient', 67, 93), ('line_search', 83, 146), ('line_search', 91, 195), ('line_search', 74, 140), ('line_search', 92, 153), ('gradient', 86, 114),),
        'BKw': (('abandoned', 60, 264), ('gradient', 133, 280), ('line_search', 104, 244), ('abandoned', 49, 264), ('gradient', 19, 32), ('gradient', 89, 122), ('gradient', 136, 281),),
        'KwKw': (('stalled', 104, 335), ('stalled', 135, 338), ('gradient', 106, 137), ('gradient', 19, 32), ('gradient', 0, 1), ('gradient', 111, 139), ('abandoned', 108, 213),),
        'GKw': (('abandoned', 71, 474), ('stalled', 93, 380), ('line_search', 152, 327), ('abandoned', 62, 264), ('gradient', 16, 31), ('line_search', 107, 325), ('gradient', 0, 1), ('gradient', 0, 1), ('line_search', 89, 192), ('gradient', 117, 267), ('stalled', 141, 366),),
    },
}
