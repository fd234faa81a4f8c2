"""pwdrecon: pulsed-wave Doppler envelope reconstruction from fetal ECG."""

__version__ = "0.1.0"
