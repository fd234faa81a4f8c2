"""The experiment harness: file formats (`io`), the synthetic generator
(`synth`), the protocol and ablation grids (`experiment`) and plot
writers (`plots`). Import from the defining module."""
