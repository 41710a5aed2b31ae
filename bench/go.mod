module codeletfft/bench

go 1.22

require codeletfft v0.0.0

replace codeletfft => ../
